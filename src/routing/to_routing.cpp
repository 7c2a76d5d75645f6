#include "routing/to_routing.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "routing/time_expanded.h"

namespace oo::routing {

using core::Path;
using core::PathHop;

bool direct_to_expanded(const optics::Schedule& sched, core::PathSink sink) {
  const int n = sched.num_nodes();
  const SliceId period = sched.period();
  Path p;  // any source: hold-for-direct is per (node, dst)
  p.hops.resize(1);
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      for (SliceId s = 0; s < period; ++s) {
        const auto hop = sched.next_direct(src, dst, s);
        if (!hop) continue;
        p.dst = dst;
        p.start_slice = s;
        p.hops[0] = PathHop{src, hop->port, hop->slice};
        if (!sink(p)) return false;
      }
    }
  }
  return true;
}

std::vector<Path> direct_to_expanded(const optics::Schedule& sched) {
  return core::collect(
      [&](core::PathSink sink) { direct_to_expanded(sched, sink); });
}

bool direct_to(const optics::Schedule& sched, core::PathSink sink) {
  const int n = sched.num_nodes();
  const SliceId period = sched.period();
  Path p;  // any source: hold-for-direct is per (node, dst)
  p.hops.resize(1);
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      const auto h0 = sched.next_direct(src, dst, 0);
      if (!h0) continue;
      p.dst = dst;
      // Single live circuit per cycle (every single-uplink rotor): each of
      // the period start slices resolves to the identical hop, so one
      // wildcard-slice path replaces the per-slice fan. The TFT lookup
      // result is unchanged at every arrival slice; the table (and the
      // routing deploy) shrinks by a factor of `period` — at 256 ToRs the
      // expanded form is 16.6M paths and dominates setup time.
      const auto h1 =
          sched.next_direct(src, dst, sched.slice_of(h0->slice + 1));
      if (h1 && h1->slice == h0->slice) {
        p.start_slice = kAnySlice;
        p.hops[0] = PathHop{src, h0->port, h0->slice};
        if (!sink(p)) return false;
        continue;
      }
      for (SliceId s = 0; s < period; ++s) {
        const auto hop = sched.next_direct(src, dst, s);
        if (!hop) continue;
        p.start_slice = s;
        p.hops[0] = PathHop{src, hop->port, hop->slice};
        if (!sink(p)) return false;
      }
    }
  }
  return true;
}

std::vector<Path> direct_to(const optics::Schedule& sched) {
  return core::collect([&](core::PathSink sink) { direct_to(sched, sink); });
}

bool vlb(const optics::Schedule& sched, core::PathSink sink) {
  // Baseline wildcard entries: any transit packet holds for the direct
  // circuit from wherever it is. These cover corner arrivals the 2-hop
  // spray paths cannot enumerate (e.g., fabric latency carrying a packet
  // across a slice boundary before its intermediate-hop lookup). Expanded
  // per-slice form, not the collapsed direct_to(): the spray transit
  // entries below share keys with it in the TFT and must merge.
  if (!direct_to_expanded(sched, sink)) return false;
  const int n = sched.num_nodes();
  const SliceId period = sched.period();
  Path p;
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      for (SliceId s = 0; s < period; ++s) {
        p.src = src;
        p.dst = dst;
        p.start_slice = s;
        // Direct circuit live right now? Take it (per-source entry).
        bool direct_now = false;
        for (PortId u = 0; u < sched.uplinks(); ++u) {
          if (auto peer = sched.peer(src, u, s);
              peer && peer->node == dst) {
            p.hops.assign({PathHop{src, u, s}});
            if (!sink(p)) return false;
            direct_now = true;
            break;
          }
        }
        if (direct_now) continue;
        // Spray: one immediate hop to whatever each uplink connects to,
        // then hold at the intermediate for the direct circuit.
        for (PortId u = 0; u < sched.uplinks(); ++u) {
          const auto peer = sched.peer(src, u, s);
          if (!peer) continue;
          const NodeId mid = peer->node;
          const auto dir =
              sched.next_direct(mid, dst, (s + 1) % period);
          if (!dir) continue;
          p.hops.assign(
              {PathHop{src, u, s}, PathHop{mid, dir->port, dir->slice}});
          if (!sink(p)) return false;
        }
      }
    }
  }
  return true;
}

std::vector<Path> vlb(const optics::Schedule& sched) {
  return core::collect([&](core::PathSink sink) { vlb(sched, sink); });
}

bool opera(const optics::Schedule& sched, core::PathSink sink) {
  const int n = sched.num_nodes();
  const SliceId period = sched.period();
  // Per (slice, destination) BFS over that slice's topology; every source's
  // path follows the parent pointers so transit entries are consistent.
  std::vector<int> dist(static_cast<std::size_t>(n));
  std::vector<PortId> via_port(static_cast<std::size_t>(n));
  std::vector<NodeId> via_node(static_cast<std::size_t>(n));
  Path p;  // any source
  for (SliceId s = 0; s < period; ++s) {
    for (NodeId dst = 0; dst < n; ++dst) {
      std::fill(dist.begin(), dist.end(), -1);
      dist[static_cast<std::size_t>(dst)] = 0;
      std::queue<NodeId> bfs;
      bfs.push(dst);
      while (!bfs.empty()) {
        const NodeId v = bfs.front();
        bfs.pop();
        // Circuits are bidirectional: explore v's neighbors; for each
        // undiscovered neighbor m, m reaches dst via the same circuit.
        for (const auto& [m, v_port] : sched.neighbors(v, s)) {
          if (dist[static_cast<std::size_t>(m)] != -1) continue;
          dist[static_cast<std::size_t>(m)] =
              dist[static_cast<std::size_t>(v)] + 1;
          // m's egress port for this circuit is its own port, which mirrors
          // v's peer record.
          const auto peer = sched.peer(v, v_port, s);
          assert(peer && peer->node == m);
          via_port[static_cast<std::size_t>(m)] = peer->port;
          via_node[static_cast<std::size_t>(m)] = v;
          bfs.push(m);
        }
      }
      p.dst = dst;
      p.start_slice = s;
      for (NodeId src = 0; src < n; ++src) {
        if (src == dst || dist[static_cast<std::size_t>(src)] < 0) continue;
        p.hops.clear();
        NodeId m = src;
        while (m != dst) {
          p.hops.push_back(
              PathHop{m, via_port[static_cast<std::size_t>(m)], s});
          m = via_node[static_cast<std::size_t>(m)];
        }
        if (!sink(p)) return false;
      }
    }
  }
  return true;
}

std::vector<Path> opera(const optics::Schedule& sched) {
  return core::collect([&](core::PathSink sink) { opera(sched, sink); });
}

bool hoho(const optics::Schedule& sched, core::PathSink sink, int max_hops) {
  const int n = sched.num_nodes();
  const SliceId period = sched.period();
  for (NodeId dst = 0; dst < n; ++dst) {
    const EarliestArrival ea(sched, dst, max_hops);
    for (NodeId src = 0; src < n; ++src) {
      if (src == dst) continue;
      for (SliceId s = 0; s < period; ++s) {
        auto p = ea.extract(src, s);
        if (!p) continue;
        p->src = kInvalidNode;  // earliest arrival is source-independent
        if (!sink(*p)) return false;
      }
    }
  }
  return true;
}

std::vector<Path> hoho(const optics::Schedule& sched, int max_hops) {
  return core::collect(
      [&](core::PathSink sink) { hoho(sched, sink, max_hops); });
}

bool ucmp(const optics::Schedule& sched, core::PathSink sink, int max_paths,
          int slack, int max_hops) {
  const int n = sched.num_nodes();
  const SliceId period = sched.period();
  std::vector<Path> cands;
  for (NodeId dst = 0; dst < n; ++dst) {
    const EarliestArrival ea(sched, dst, max_hops);
    // Tails after the first hop have one fewer hop of budget.
    const EarliestArrival ea_tail(sched, dst, std::max(1, max_hops - 1));
    for (NodeId src = 0; src < n; ++src) {
      if (src == dst) continue;
      for (SliceId s = 0; s < period; ++s) {
        const int best = ea.offset(src, s);
        if (best >= EarliestArrival::kInf) continue;
        // Enumerate first moves: wait w slices, then ride uplink u; keep
        // those arriving within `slack` of the earliest.
        cands.clear();
        for (int w = 0; w < period &&
                        static_cast<int>(cands.size()) < max_paths;
             ++w) {
          const SliceId sw = (s + w) % period;
          for (PortId u = 0; u < sched.uplinks(); ++u) {
            const auto peer = sched.peer(src, u, sw);
            if (!peer) continue;
            const NodeId v = peer->node;
            int arrive;
            if (v == dst) {
              arrive = w;
            } else {
              const int rest = ea_tail.offset(v, (sw + 1) % period);
              if (rest >= EarliestArrival::kInf) continue;
              arrive = w + 1 + rest;
            }
            if (arrive > best + slack) continue;
            Path p;
            p.src = kInvalidNode;
            p.dst = dst;
            p.start_slice = s;
            p.hops.push_back(PathHop{src, u, sw});
            if (v != dst) {
              auto rest_path = ea_tail.extract(v, (sw + 1) % period);
              if (!rest_path) continue;
              for (auto& h : rest_path->hops) p.hops.push_back(h);
            }
            cands.push_back(std::move(p));
            if (static_cast<int>(cands.size()) >= max_paths) break;
          }
        }
        const double w = cands.empty()
                             ? 1.0
                             : 1.0 / static_cast<double>(cands.size());
        for (auto& p : cands) {
          p.weight = w;  // uniform cost across the near-optimal set
          if (!sink(p)) return false;
        }
      }
    }
  }
  return true;
}

std::vector<Path> ucmp(const optics::Schedule& sched, int max_paths,
                       int slack, int max_hops) {
  return core::collect([&](core::PathSink sink) {
    ucmp(sched, sink, max_paths, slack, max_hops);
  });
}

}  // namespace oo::routing
