#include "routing/ta_routing.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <set>

namespace oo::routing {

using core::kElectricalEgress;
using core::Path;
using core::PathHop;

namespace {

struct BfsResult {
  std::vector<int> dist;
  // Canonical parent (node, our egress port) toward the destination.
  std::vector<NodeId> via_node;
  std::vector<PortId> via_port;
};

// BFS toward `dst` on the static (slice-0) topology.
BfsResult bfs_to(const optics::Schedule& sched, NodeId dst) {
  const int n = sched.num_nodes();
  BfsResult r{std::vector<int>(static_cast<std::size_t>(n), -1),
              std::vector<NodeId>(static_cast<std::size_t>(n), kInvalidNode),
              std::vector<PortId>(static_cast<std::size_t>(n), kInvalidPort)};
  r.dist[static_cast<std::size_t>(dst)] = 0;
  std::queue<NodeId> q;
  q.push(dst);
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (const auto& [m, v_port] : sched.neighbors(v, 0)) {
      if (r.dist[static_cast<std::size_t>(m)] != -1) continue;
      r.dist[static_cast<std::size_t>(m)] =
          r.dist[static_cast<std::size_t>(v)] + 1;
      const auto peer = sched.peer(v, v_port, 0);
      r.via_node[static_cast<std::size_t>(m)] = v;
      r.via_port[static_cast<std::size_t>(m)] = peer->port;
      q.push(m);
    }
  }
  return r;
}

// Canonical hop chain from `from` to dst following BFS parents (wildcard
// departure slices — flow-table semantics).
void append_chain(const BfsResult& r, NodeId from, NodeId dst,
                  std::vector<PathHop>& hops) {
  NodeId m = from;
  while (m != dst) {
    hops.push_back(PathHop{m, r.via_port[static_cast<std::size_t>(m)],
                           kAnySlice});
    m = r.via_node[static_cast<std::size_t>(m)];
  }
}

// Shared ECMP/WCMP generator. `one_port_per_neighbor` collapses parallel
// circuits to a neighbor into a single option (classical ECMP); otherwise
// every parallel circuit is its own option (WCMP capacity weighting).
bool multipath_shortest(const optics::Schedule& sched,
                        bool one_port_per_neighbor, core::PathSink sink) {
  const int n = sched.num_nodes();
  Path p;  // any source, any slice
  for (NodeId dst = 0; dst < n; ++dst) {
    const BfsResult r = bfs_to(sched, dst);
    p.dst = dst;
    for (NodeId m = 0; m < n; ++m) {
      if (m == dst || r.dist[static_cast<std::size_t>(m)] < 0) continue;
      std::set<NodeId> seen_neighbors;
      for (const auto& [v, port] : sched.neighbors(m, 0)) {
        if (r.dist[static_cast<std::size_t>(v)] !=
            r.dist[static_cast<std::size_t>(m)] - 1)
          continue;
        if (one_port_per_neighbor && !seen_neighbors.insert(v).second)
          continue;
        p.hops.assign({PathHop{m, port, kAnySlice}});
        if (v != dst) append_chain(r, v, dst, p.hops);
        if (!sink(p)) return false;
      }
    }
  }
  return true;
}

}  // namespace

bool ecmp(const optics::Schedule& sched, core::PathSink sink) {
  return multipath_shortest(sched, /*one_port_per_neighbor=*/true, sink);
}

std::vector<Path> ecmp(const optics::Schedule& sched) {
  return core::collect([&](core::PathSink sink) { ecmp(sched, sink); });
}

bool wcmp(const optics::Schedule& sched, core::PathSink sink) {
  return multipath_shortest(sched, /*one_port_per_neighbor=*/false, sink);
}

std::vector<Path> wcmp(const optics::Schedule& sched) {
  return core::collect([&](core::PathSink sink) { wcmp(sched, sink); });
}

bool electrical_default(int num_nodes, core::PathSink sink) {
  Path p;  // any source, any slice
  p.hops.resize(1);
  for (NodeId m = 0; m < num_nodes; ++m) {
    for (NodeId dst = 0; dst < num_nodes; ++dst) {
      if (m == dst) continue;
      p.dst = dst;
      p.hops[0] = PathHop{m, kElectricalEgress, kAnySlice};
      if (!sink(p)) return false;
    }
  }
  return true;
}

std::vector<Path> electrical_default(int num_nodes) {
  return core::collect(
      [&](core::PathSink sink) { electrical_default(num_nodes, sink); });
}

bool ksp(const optics::Schedule& sched, core::PathSink sink, int k) {
  const int n = sched.num_nodes();
  assert(k >= 1);

  // Unweighted shortest path with banned edges/nodes, for Yen deviations.
  struct Hop {
    NodeId node;
    PortId port;
  };
  auto shortest = [&sched, n](NodeId src, NodeId dst,
                              const std::set<std::pair<NodeId, PortId>>& banned_edges,
                              const std::set<NodeId>& banned_nodes)
      -> std::vector<Hop> {
    std::vector<int> dist(static_cast<std::size_t>(n), -1);
    std::vector<NodeId> pn(static_cast<std::size_t>(n), kInvalidNode);
    std::vector<PortId> pp(static_cast<std::size_t>(n), kInvalidPort);
    std::queue<NodeId> q;
    dist[static_cast<std::size_t>(src)] = 0;
    q.push(src);
    while (!q.empty()) {
      const NodeId m = q.front();
      q.pop();
      if (m == dst) break;
      for (const auto& [v, port] : sched.neighbors(m, 0)) {
        if (banned_edges.count({m, port}) > 0) continue;
        if (v != dst && banned_nodes.count(v) > 0) continue;
        if (dist[static_cast<std::size_t>(v)] != -1) continue;
        dist[static_cast<std::size_t>(v)] =
            dist[static_cast<std::size_t>(m)] + 1;
        pn[static_cast<std::size_t>(v)] = m;
        pp[static_cast<std::size_t>(v)] = port;
        q.push(v);
      }
    }
    std::vector<Hop> hops;
    if (dist[static_cast<std::size_t>(dst)] < 0) return hops;
    for (NodeId m = dst; m != src;
         m = pn[static_cast<std::size_t>(m)]) {
      hops.push_back(Hop{pn[static_cast<std::size_t>(m)],
                         pp[static_cast<std::size_t>(m)]});
    }
    std::reverse(hops.begin(), hops.end());
    return hops;
  };

  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      std::vector<std::vector<Hop>> found;
      auto first = shortest(src, dst, {}, {});
      if (first.empty()) continue;
      found.push_back(std::move(first));
      std::vector<std::vector<Hop>> candidates;
      while (static_cast<int>(found.size()) < k) {
        const auto& base = found.back();
        // Yen deviations: for each spur node, ban the edges used by found
        // paths sharing the root prefix and the root-prefix nodes.
        for (std::size_t i = 0; i < base.size(); ++i) {
          std::set<std::pair<NodeId, PortId>> banned_edges;
          std::set<NodeId> banned_nodes;
          for (const auto& path : found) {
            if (path.size() < i) continue;
            bool same_root = true;
            for (std::size_t j = 0; j < i && j < path.size(); ++j) {
              if (path[j].node != base[j].node ||
                  path[j].port != base[j].port) {
                same_root = false;
                break;
              }
            }
            if (same_root && i < path.size()) {
              banned_edges.insert({path[i].node, path[i].port});
            }
          }
          for (std::size_t j = 0; j < i; ++j) banned_nodes.insert(base[j].node);
          const NodeId spur = base[i].node;
          auto tail = shortest(spur, dst, banned_edges, banned_nodes);
          if (tail.empty()) continue;
          std::vector<Hop> cand(base.begin(),
                                base.begin() + static_cast<long>(i));
          cand.insert(cand.end(), tail.begin(), tail.end());
          // Dedupe against found and pending candidates.
          auto equal = [](const std::vector<Hop>& a,
                          const std::vector<Hop>& b) {
            if (a.size() != b.size()) return false;
            for (std::size_t x = 0; x < a.size(); ++x) {
              if (a[x].node != b[x].node || a[x].port != b[x].port)
                return false;
            }
            return true;
          };
          bool dup = false;
          for (const auto& f : found) dup = dup || equal(f, cand);
          for (const auto& c : candidates) dup = dup || equal(c, cand);
          if (!dup) candidates.push_back(std::move(cand));
        }
        if (candidates.empty()) break;
        // Shortest candidate becomes the next path.
        auto best = std::min_element(
            candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
        found.push_back(std::move(*best));
        candidates.erase(best);
      }
      Path p;  // any source, any slice
      p.dst = dst;
      p.weight = 1.0 / static_cast<double>(found.size());
      for (const auto& hops : found) {
        p.hops.clear();
        for (const auto& h : hops) {
          p.hops.push_back(PathHop{h.node, h.port, kAnySlice});
        }
        if (!sink(p)) return false;
      }
    }
  }
  return true;
}

std::vector<Path> ksp(const optics::Schedule& sched, int k) {
  return core::collect([&](core::PathSink sink) { ksp(sched, sink, k); });
}

}  // namespace oo::routing
