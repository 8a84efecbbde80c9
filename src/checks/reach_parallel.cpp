// Parallel, symmetry-reduced explicit-state exploration (checks/reach.hpp).
//
// The test-side oracle (tests/support/reach_oracle.cpp) is a 100-line BFS
// over string fingerprints.  This file is the version that actually scales
// — the same wave-by-wave BFS semantics, executed as morsels on the shared
// work-stealing pool:
//
//  - The visited set stores 128-bit hashes of the canonical numeric state
//    encoding (sim::Machine::encode_state) instead of fingerprint strings.
//  - With symmetry on, each successor is hashed through every relabeling in
//    the quad/address symmetry group and keyed on the orbit minimum, so an
//    entire orbit of equivalent states costs one visited-set entry.
//  - Each wave expands in parallel; lookups against the visited set are
//    lock-free because inserts happen only in the single-threaded merge
//    between waves.  The merge walks morsel outputs in frontier order, so
//    every aggregate — and the choice of orbit representative when two
//    states in one wave collide — is a pure function of the input, never of
//    the worker schedule.  That is what makes results identical at any
//    --jobs value.
//  - Parent pointers (state id -> predecessor id + action) turn any
//    deadlock into a replayable action trace, and every distinct wedged-
//    channel set is recorded so VCG cycles can be classified against the
//    deadlocks that actually occur.
#include "checks/reach.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/pool.hpp"
#include "obs/obs.hpp"
#include "sim/machine.hpp"

namespace ccsql {
namespace {

using sim::Machine;
using Hash128 = std::array<std::uint64_t, 2>;

constexpr std::uint64_t kNoParent = ~0ull;

struct Hash128Hasher {
  std::size_t operator()(const Hash128& h) const noexcept {
    // h[0] is already splitmix-avalanched; use it directly as the bucket
    // hash and h[1] (an independent lane) for shard selection.
    return static_cast<std::size_t>(h[0]);
  }
};

/// The visited set, sharded to keep per-table rehash cost bounded.  Phase
/// discipline instead of locks: wave expansion only calls contains() (many
/// threads, no writers), the inter-wave merge only calls insert() (one
/// thread, no readers) — the pool's group barrier orders the two phases.
class ShardedVisited {
 public:
  ShardedVisited() : shards_(kShards) {}

  [[nodiscard]] bool contains(const Hash128& h) const {
    const auto& s = shards_[shard_of(h)];
    return s.find(h) != s.end();
  }
  /// Merge phase only.  True when `h` was new.
  bool insert(const Hash128& h) {
    return shards_[shard_of(h)].insert(h).second;
  }

 private:
  static constexpr std::size_t kShards = 64;
  static std::size_t shard_of(const Hash128& h) noexcept {
    return static_cast<std::size_t>(h[1]) & (kShards - 1);
  }
  std::vector<std::unordered_set<Hash128, Hash128Hasher>> shards_;
};

/// The structural symmetry group of a configuration: every permutation pi
/// of quads whose home classes ({a : a % n_quads == h}) map onto classes of
/// equal size, combined with every address bijection that sends class h
/// onto class pi(h).  home_of commutes with each relabeling by
/// construction, so each one is an automorphism of the transition system.
std::vector<Machine::Relabeling> symmetry_group(int n_quads, int n_addrs) {
  std::vector<Machine::Relabeling> out;
  std::vector<std::vector<sim::Addr>> cls(static_cast<std::size_t>(n_quads));
  for (sim::Addr a = 0; a < n_addrs; ++a) {
    cls[static_cast<std::size_t>(a % n_quads)].push_back(a);
  }
  std::vector<sim::QuadId> perm(static_cast<std::size_t>(n_quads));
  for (int q = 0; q < n_quads; ++q) perm[static_cast<std::size_t>(q)] = q;
  do {
    bool sizes_ok = true;
    for (std::size_t h = 0; h < cls.size(); ++h) {
      if (cls[h].size() != cls[static_cast<std::size_t>(perm[h])].size()) {
        sizes_ok = false;
      }
    }
    if (!sizes_ok) continue;
    // Enumerate the product of per-class permutations of the target class.
    std::vector<std::vector<sim::Addr>> target(cls.size());
    for (std::size_t h = 0; h < cls.size(); ++h) {
      target[h] = cls[static_cast<std::size_t>(perm[h])];
    }
    std::function<void(std::size_t)> emit = [&](std::size_t h) {
      if (h == cls.size()) {
        Machine::Relabeling r;
        r.quad = perm;
        r.addr.resize(static_cast<std::size_t>(n_addrs));
        for (std::size_t hh = 0; hh < cls.size(); ++hh) {
          for (std::size_t k = 0; k < cls[hh].size(); ++k) {
            r.addr[static_cast<std::size_t>(cls[hh][k])] = target[hh][k];
          }
        }
        out.push_back(std::move(r));
        return;
      }
      std::sort(target[h].begin(), target[h].end());
      do {
        emit(h + 1);
      } while (std::next_permutation(target[h].begin(), target[h].end()));
    };
    emit(0);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

struct ParentEdge {
  std::uint64_t parent = kNoParent;
  Machine::Action act{};
};

struct FrontierEntry {
  Machine::Snapshot snap;
  std::uint64_t id = 0;
};

/// A successor produced during wave expansion, pending the merge's
/// visited-set decision.
struct Candidate {
  Hash128 hash{};
  Machine::Snapshot snap;
  std::uint64_t parent = 0;
  Machine::Action act{};
};

/// One morsel's expansion output.  Slot-per-morsel and concatenated in
/// morsel order, per the pool's determinism contract.
struct MorselOut {
  std::vector<Candidate> candidates;
  std::vector<std::pair<std::string, std::string>> violations;  // raw, suffix
  std::vector<std::size_t> deadlocks;  // frontier indices
  std::uint64_t transitions = 0;
  std::uint64_t dedup_hits = 0;
};

}  // namespace

ReachParallelResult explore_parallel(const ProtocolSpec& spec,
                                     const ChannelAssignment& v,
                                     const ReachParallelConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  CCSQL_SPAN(span, "reach.explore_parallel", "checks");

  sim::SimConfig sim_cfg;
  sim_cfg.n_quads = config.n_quads;
  sim_cfg.n_addrs = config.n_addrs;
  sim_cfg.channel_capacity = config.channel_capacity;
  sim_cfg.transactions_per_node = config.ops_per_node;
  sim_cfg.transactions_by_node = config.ops_by_node;
  sim_cfg.workload_ops = config.inject_ops;

  core::Pool& pool = core::Pool::global();
  const std::size_t jobs =
      config.jobs != 0 ? config.jobs : core::Pool::default_jobs();
  const std::size_t lanes = pool.size() + 1;

  // One Machine per lane (workers plus the caller), created on first touch:
  // a machine carries six table indexes, so lanes that never run a morsel
  // should not pay for one.
  std::vector<std::unique_ptr<Machine>> machines(lanes);
  const std::unique_ptr<std::once_flag[]> machine_once(
      new std::once_flag[lanes]);
  auto lane_machine = [&]() -> Machine& {
    const auto lane = static_cast<std::size_t>(core::Pool::worker_id() + 1);
    std::call_once(machine_once[lane], [&, lane] {
      auto m = std::make_unique<Machine>(spec, v, sim_cfg);
      m->enable_random_workload();
      machines[lane] = std::move(m);
    });
    return *machines[lane];
  };

  // Per-node budgets make quads distinguishable, so the permutation group
  // is only sound under uniform budgets.
  const bool symmetric_config = config.ops_by_node.empty();
  const std::vector<Machine::Relabeling> group =
      (config.symmetry && symmetric_config)
          ? symmetry_group(config.n_quads, config.n_addrs)
          : std::vector<Machine::Relabeling>{};

  ReachParallelResult result;
  result.canon_group = group.empty() ? 1 : group.size();
  result.complete = true;

  ShardedVisited visited;
  std::vector<ParentEdge> parents;
  std::vector<FrontierEntry> frontier;

  Machine& root = lane_machine();  // the caller's lane
  visited.insert(root.canonical_hash(group));
  parents.push_back(ParentEdge{});
  frontier.push_back(FrontierEntry{root.snapshot(), 0});
  result.states = 1;

  std::unordered_set<std::string> violations_seen;
  // First deadlock state id per distinct wedged-channel set, BFS order.
  std::map<std::vector<Value>, std::uint64_t> first_by_wedge;
  std::uint64_t first_deadlock = kNoParent;

  constexpr std::size_t kGrain = 4;
  bool stop = false;
  bool truncated = false;

  while (!frontier.empty() && !stop) {
    ++result.waves;
    const std::size_t n = frontier.size();
    const std::size_t morsels = (n + kGrain - 1) / kGrain;
    std::vector<MorselOut> outs(morsels);

    pool.parallel_for(
        n, kGrain, jobs,
        [&](std::size_t begin, std::size_t end, std::size_t m) {
          Machine& mach = lane_machine();
          MorselOut& out = outs[m];
          for (std::size_t i = begin; i < end; ++i) {
            const Machine::Snapshot& state = frontier[i].snap;
            mach.restore(state);
            const auto actions = mach.possible_actions();
            bool any_fired = false;
            for (const auto& action : actions) {
              mach.restore(state);
              mach.clear_errors();
              if (!mach.apply_action(action)) continue;  // blocked channel
              any_fired = true;
              ++out.transitions;
              for (const auto& e : mach.errors()) {
                out.violations.emplace_back(
                    e, "  [after " + action.to_string() + "]");
              }
              const Hash128 h = mach.canonical_hash(group);
              if (visited.contains(h)) {
                ++out.dedup_hits;
                continue;
              }
              out.candidates.push_back(
                  Candidate{h, mach.snapshot(), frontier[i].id, action});
            }
            if (!any_fired) {
              // Terminal state: quiescent-and-done is fine; anything else
              // with messages in flight is a global deadlock.
              mach.restore(state);
              if (!mach.quiescent()) {
                out.deadlocks.push_back(i);
              } else {
                for (const auto& e : mach.check_quiescent_state()) {
                  out.violations.emplace_back(e, "  [terminal state]");
                }
              }
            }
          }
        });

    // Merge, single-threaded, in morsel order.  BFS discovery order here is
    // exactly the sequential explorer's, so first-occurrence annotations,
    // state ids, and the first-deadlock choice all agree with the oracle.
    std::vector<FrontierEntry> next;
    for (std::size_t m = 0; m < morsels; ++m) {
      MorselOut& out = outs[m];
      result.transitions += out.transitions;
      result.dedup_hits += out.dedup_hits;
      for (auto& [raw, suffix] : out.violations) {
        if (violations_seen.insert(raw).second) {
          result.violations.push_back(raw + suffix);
        }
      }
      for (std::size_t i : out.deadlocks) {
        ++result.deadlock_states;
        Machine& mach = lane_machine();
        mach.restore(frontier[i].snap);
        if (first_deadlock == kNoParent) {
          first_deadlock = frontier[i].id;
          result.deadlock_example = mach.describe_network();
        }
        first_by_wedge.try_emplace(mach.occupied_vcs(), frontier[i].id);
      }
      for (Candidate& cand : out.candidates) {
        if (truncated) break;
        if (!visited.insert(cand.hash)) {
          ++result.dedup_hits;  // same-wave duplicate
          continue;
        }
        const std::uint64_t id = parents.size();
        parents.push_back(ParentEdge{cand.parent, cand.act});
        next.push_back(FrontierEntry{std::move(cand.snap), id});
        ++result.states;
        if (result.states >= config.max_states) {
          truncated = true;
          result.complete = false;
        }
      }
    }

    if (config.stop_at_first_deadlock && first_deadlock != kNoParent) {
      result.complete = false;
      stop = true;
    }
    if (truncated) stop = true;

    CCSQL_INSTANT("reach.wave", "checks", obs::arg("wave", result.waves),
                  obs::arg("states", result.states),
                  obs::arg("frontier", next.size()));
    frontier = std::move(next);
  }

  // Parent-pointer witness reconstruction.
  const auto trace_of = [&](std::uint64_t id) {
    std::vector<Machine::Action> trace;
    for (std::uint64_t cur = id; cur != 0;) {
      const ParentEdge& e = parents[static_cast<std::size_t>(cur)];
      trace.push_back(e.act);
      cur = e.parent;
    }
    std::reverse(trace.begin(), trace.end());
    return trace;
  };
  for (const auto& [wedge, id] : first_by_wedge) {
    ReachDeadlock d;
    d.state = id;
    d.occupied = wedge;
    d.trace = trace_of(id);
    result.deadlocks.push_back(std::move(d));
  }
  std::sort(result.deadlocks.begin(), result.deadlocks.end(),
            [](const ReachDeadlock& a, const ReachDeadlock& b) {
              return a.state < b.state;
            });
  if (first_deadlock != kNoParent) {
    result.deadlock_trace = trace_of(first_deadlock);
  }

  const auto end = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(end - start).count();
  span.arg("states", result.states);
  span.arg("transitions", result.transitions);
  span.arg("deadlock_states", result.deadlock_states);
  span.arg("waves", result.waves);
  CCSQL_COUNT("reach.states", result.states);
  CCSQL_COUNT("reach.transitions", result.transitions);
  CCSQL_COUNT("reach.deadlock_states", result.deadlock_states);
  CCSQL_COUNT("reach.waves", result.waves);
  CCSQL_COUNT("reach.dedup_hits", result.dedup_hits);
  CCSQL_COUNT("reach.canon_factor", result.canon_group);
  CCSQL_OBSERVE("reach.states_per_sec",
                result.states / std::max(result.seconds, 1e-9));
  return result;
}

std::vector<CycleClassification> classify_cycles(
    const ProtocolSpec& spec, const ChannelAssignment& v,
    const std::vector<VcgCycle>& cycles, const ReachParallelConfig& config) {
  CCSQL_SPAN(span, "reach.classify_cycles", "checks");
  const ReachParallelResult r = explore_parallel(spec, v, config);
  std::vector<CycleClassification> out;
  out.reserve(cycles.size());
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    CycleClassification c;
    c.cycle_index = i;
    c.channels = cycles[i].channels;
    std::sort(c.channels.begin(), c.channels.end());
    c.channels.erase(std::unique(c.channels.begin(), c.channels.end()),
                     c.channels.end());
    c.states_searched = r.states;
    c.verdict =
        r.complete ? CycleVerdict::kUnreachable : CycleVerdict::kBudget;
    // A deadlock realizes the cycle when its wedged-channel set is exactly
    // the cycle's channel set: every channel of the cycle is blocked and
    // nothing else is, which rules out matching a composition-artifact
    // sub-cycle against a wider wedge (Figure 4 wedges {VC2, VC4}, not the
    // VC2->VC2 or VC4->VC4 self-loops the composition also reports).
    for (const ReachDeadlock& d : r.deadlocks) {
      if (d.occupied == c.channels) {
        c.verdict = CycleVerdict::kReachable;
        c.witness = d.trace;
        break;
      }
    }
    out.push_back(std::move(c));
  }
  span.arg("cycles", cycles.size());
  span.arg("states", r.states);
  return out;
}

std::string format_classification(
    const std::vector<CycleClassification>& classifications) {
  std::ostringstream os;
  if (classifications.empty()) {
    os << "no cycles to classify\n";
    return os.str();
  }
  for (const auto& c : classifications) {
    os << "cycle " << c.cycle_index << " [";
    for (std::size_t i = 0; i < c.channels.size(); ++i) {
      os << (i == 0 ? "" : " ") << c.channels[i].str();
    }
    os << "]: ";
    switch (c.verdict) {
      case CycleVerdict::kReachable:
        os << "reachable  (witness: " << c.witness.size() << " actions)";
        break;
      case CycleVerdict::kUnreachable:
        os << "unreachable  (" << c.states_searched
           << " states, search complete)";
        break;
      case CycleVerdict::kBudget:
        os << "not reached within budget  (" << c.states_searched
           << " states, search truncated)";
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ccsql
