#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "protocol/protocol_spec.hpp"
#include "sim/dispatch.hpp"
#include "sim/network.hpp"
#include "sim/types.hpp"

namespace ccsql::sim {

/// Outcome of a simulation run.
struct SimResult {
  bool completed = false;   // all injected transactions finished
  bool deadlocked = false;  // no progress with messages in flight
  bool stalled = false;     // hit max_steps without completing
  std::uint64_t steps = 0;
  int transactions_done = 0;
  /// Wall-clock duration of run() (throughput reporting only; every other
  /// field is deterministic for a given config and seed).
  double seconds = 0;
  /// Rows the tables could not cover (specification incompleteness) and
  /// coherence-monitor violations; empty on a healthy run.
  std::vector<std::string> errors;
  std::string deadlock_report;
  /// Per-run event counters (messages per VC, table hits/misses, stalls,
  /// cycle-model charges, events/sec).
  SimCounters counters;

  [[nodiscard]] bool healthy() const {
    return completed && !deadlocked && errors.empty();
  }
  /// Simulator events per wall-clock second (the scale-out throughput
  /// metric; also stored in counters.events_per_sec).
  [[nodiscard]] std::uint64_t events_per_sec() const {
    return counters.events_per_sec;
  }
};

/// A table-driven execution of the ASURA protocol: quads with a node each
/// (cache + node controller), a home engine per quad (directory + memory
/// controller) and a remote snoop engine, wired by finite virtual channels
/// per the chosen assignment.  All control decisions come from the
/// generated controller tables — the simulator owns state and transport
/// only, so a wrong table row surfaces as a dynamic error here.
class Machine {
 public:
  // ---- Controller-state records (public: Snapshot exposes them) -----------
  struct DirLine {
    Value dirst;             // I / SI / MESI
    std::set<QuadId> pv;     // sharers / owner
    Value bdirst;            // I or a busy state
    int pending = 0;         // outstanding snoop acks
    QuadId requester = -1;   // local node of the in-flight transaction
    std::int64_t held = -1;  // buffered data version
    std::int64_t txver = -1; // data version carried by the transaction
  };

  struct HomeEngine {
    std::map<Addr, DirLine> dir;
    std::map<Addr, std::int64_t> memory;
    int cooldown = 0;  // memory-latency countdown
  };

  struct Node {
    std::map<Addr, Value> cst;             // cache line states
    std::map<Addr, std::int64_t> cver;     // cache data versions
    Value ncst;                            // node controller state
    Addr cur = -1;                         // outstanding address
    Value iocst;                           // I/O controller state
    Addr io_cur = -1;                      // outstanding I/O address
    std::deque<SimMessage> outbox;         // the RAC decoupling buffer
    std::deque<std::pair<Value, Addr>> scripted;
    int random_remaining = 0;
    int done = 0;
    /// Per-node phase counter driving the deterministic workload shapes
    /// (Workload::kLock and friends); untouched by kRandom and by the
    /// exploration interface, so state encodings need not carry it.
    std::uint64_t wl_tick = 0;
  };

  /// Compiles the controller tables privately (a per-machine cost).
  Machine(const ProtocolSpec& spec, const ChannelAssignment& v,
          SimConfig config);

  /// Shares a precompiled dispatch across machines — the sweep engine's
  /// constructor: compilation is paid once, every run reuses it read-only.
  /// The spec `tables` came from must outlive the machine.
  Machine(const ProtocolSpec& spec, const ChannelAssignment& v,
          SimConfig config, std::shared_ptr<const CompiledTables> tables);

  /// Pre-establishes a line's global state: `dirst` in {I, SI, MESI}, with
  /// the given holders (sharers for SI, the single owner for MESI).
  void set_line(Addr addr, std::string_view dirst,
                const std::vector<QuadId>& holders);

  /// Scripts a processor operation (prd/pwr/pup/pwb/pfl); scripted ops are
  /// issued in order per node, each when the node controller is idle.
  void script(QuadId node, std::string_view op, Addr addr);

  /// Enables the configured workload shape (SimConfig::workload): each node
  /// issues `transactions_per_node` legal operations.
  void enable_workload();

  /// Back-compat alias: enables the workload budget (the legacy name; the
  /// shape actually generated is SimConfig::workload).
  void enable_random_workload() { enable_workload(); }

  /// Extra scheduler steps the memory controller waits between messages
  /// (models memory latency; the Figure 4 interleaving needs a slow
  /// memory).  Also applied as the initial busy time.
  void set_memory_latency(int steps) {
    memory_latency_ = steps;
    for (auto& he : homes_) he.cooldown = steps;
  }

  SimResult run();

  /// Quiescent-state cross-check (directory vs caches); called by run()
  /// at completion and available to tests.
  [[nodiscard]] std::vector<std::string> check_quiescent_state() const;

  // ---- Single-action interface (exhaustive exploration) --------------------
  // The explicit-state baseline (checks/reach.hpp) drives the machine one
  // atomic action at a time and snapshots/restores state between branches.

  struct Action {
    enum class Kind { kDeliver, kDrain, kInject };
    Kind kind = Kind::kDeliver;
    Network::QueueRef queue;  // kDeliver
    QuadId node = -1;         // kDrain / kInject
    Value op;                 // kInject (processor/device op)
    Addr addr = -1;           // kInject

    [[nodiscard]] std::string to_string() const;
  };

  /// Candidate actions in the current state.  A candidate may still fail
  /// to apply (blocked output channel): apply_action reports that.
  [[nodiscard]] std::vector<Action> possible_actions() const;

  /// Applies one action; returns true iff the state advanced.
  bool apply_action(const Action& action);

  /// Opaque copy of the entire mutable state.
  struct Snapshot {
    std::vector<HomeEngine> homes;
    std::vector<Node> nodes;
    std::map<Addr, std::int64_t> gv;
    Network::State net;
    std::vector<std::string> errors;
  };
  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& snap);

  /// Canonical encoding of the state, for visited-set hashing.
  [[nodiscard]] std::string fingerprint() const;

  // ---- Hashed canonical encodings (parallel exploration) -------------------
  // The parallel explorer (checks/reach.hpp) keys its visited set on 128-bit
  // hashes of a numeric state encoding instead of fingerprint() strings, and
  // canonicalizes modulo the protocol's structural symmetry: quads are
  // interchangeable, and so are addresses within one home class, as long as
  // both are relabeled consistently (home_of must commute with the
  // relabeling).

  /// A joint relabeling of quad and address identifiers: old id -> new id.
  /// Sound when `addr` maps every home class onto the class of the permuted
  /// home, i.e. addr[a] % n_quads == quad[a % n_quads] for all a.
  struct Relabeling {
    std::vector<QuadId> quad;
    std::vector<Addr> addr;
  };

  /// Appends the canonical numeric encoding of the current state to `out`,
  /// every quad/address id relabeled through `relabel` (identity when null).
  /// Two states encode equal iff fingerprint() distinguishes them equal
  /// under the same relabeling; data versions are dense-ranked per address
  /// exactly as in fingerprint().
  void encode_state(std::vector<std::uint64_t>& out,
                    const Relabeling* relabel = nullptr) const;

  /// 128-bit splitmix-style hash of encode_state() under one relabeling.
  [[nodiscard]] std::array<std::uint64_t, 2> state_hash(
      const Relabeling* relabel = nullptr) const;

  /// Orbit-canonical hash: the minimum state_hash over every relabeling in
  /// `group` (the identity hash when the group is empty).  Equivalent states
  /// — equal up to a group element — collapse onto one key.
  [[nodiscard]] std::array<std::uint64_t, 2> canonical_hash(
      const std::vector<Relabeling>& group) const;

  /// Virtual channels holding at least one queued message (deadlock
  /// classification: which VCG channels are actually wedged).
  [[nodiscard]] std::vector<Value> occupied_vcs() const {
    return net_.occupied_vcs();
  }

  /// True when nothing is in flight and every controller is idle.
  [[nodiscard]] bool quiescent() const;

  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }
  void clear_errors() { errors_.clear(); }

  /// Remaining random-workload budget across all nodes (0 in scripted use).
  [[nodiscard]] int injection_budget() const;

  /// Occupied-channel dump (deadlock reporting).
  [[nodiscard]] std::string describe_network() const {
    return net_.describe_blocked();
  }

  /// Event counters so far (hit/miss accounting is per-machine even when
  /// the dispatch tables are shared).
  [[nodiscard]] SimCounters counters() const;

 private:

  // -- helpers ---------------------------------------------------------------
  [[nodiscard]] QuadId home_of(Addr a) const {
    return a % config_.n_quads;
  }
  /// Sorted distinct live data versions per address — the order-preserving
  /// dense-rank normalisation both fingerprint() and encode_state() apply so
  /// the visited set is finite.  Indexed by address (0..n_addrs-1); a
  /// version's rank is its position in the address's vector.
  [[nodiscard]] std::vector<std::vector<std::int64_t>> version_table() const;
  /// encode_state with a precomputed version table (the relabeling-invariant
  /// part), so orbit canonicalization pays for the ranking only once.
  void encode_with(std::vector<std::uint64_t>& out, const Relabeling* relabel,
                   const std::vector<std::vector<std::int64_t>>& vers) const;
  DirLine& line(QuadId home, Addr a);
  Node& node(QuadId q) { return nodes_[static_cast<std::size_t>(q)]; }
  static Value enc_count(std::size_t n);

  /// Controller-table lookup with per-run hit/miss accounting (the
  /// dispatch structures may be shared across machines, so the counters
  /// live here, not there).
  std::optional<std::size_t> lookup(const ControllerDispatch& t,
                                    std::initializer_list<Value> key) {
    auto row = t.find(key);
    if (row) {
      ++counters_.table_hits;
    } else {
      ++counters_.table_misses;
    }
    return row;
  }

  /// Snoop targets for the row being applied (fills snoop_scratch_).
  const std::vector<QuadId>& snoop_targets(const DirLine& l,
                                           QuadId requester);

  // -- controller steps (return true on progress) ----------------------------
  bool step_directory(QuadId q, const Network::QueueRef& ref,
                      const SimMessage& msg);
  bool step_memory(QuadId q, const Network::QueueRef& ref,
                   const SimMessage& msg);
  bool step_rsn(QuadId q, const Network::QueueRef& ref,
                const SimMessage& msg);
  bool step_node_response(QuadId q, const Network::QueueRef& ref,
                          const SimMessage& msg);
  bool step_ioc(QuadId q, const Network::QueueRef& ref,
                const SimMessage& msg);
  bool drain_outbox(QuadId q);
  bool inject(QuadId q);

  /// Routes a queue-head message to its consuming controller.  Takes the
  /// message by value: each step pops it off the queue (consume) before it
  /// is done reading it.
  bool deliver(QuadId q, const Network::QueueRef& ref, SimMessage msg);

  /// net_.send plus counter/trace bookkeeping.
  void post(const SimMessage& msg, QuadId home);
  /// net_.pop plus counter bookkeeping.
  void consume(const Network::QueueRef& ref);
  /// True when the global tracer wants per-event instants (constant false
  /// when instrumentation is compiled out) — guard before building strings.
  [[nodiscard]] static bool tracing() noexcept;
  /// Emits a per-event trace instant; call only under tracing().
  void trace_step(const char* what, QuadId q, const SimMessage& msg,
                  std::string_view extra = {});

  /// Issues one processor/device operation (hit handling included); true on
  /// progress.
  bool issue_op(QuadId q, Value op, Addr addr);

  /// Transaction-generating operations legal for this node right now.
  [[nodiscard]] std::vector<std::pair<Value, Addr>> legal_ops(QuadId q) const;

  /// Next (op, addr) for a deterministic workload shape (kLock etc.),
  /// legality-adjusted against the node's current cache state.
  [[nodiscard]] std::pair<Value, Addr> workload_op(QuadId q) const;

  /// One random-workload (op, addr) draw; advances rng_.
  [[nodiscard]] std::pair<Value, Addr> random_op(QuadId q);

  /// Applies a cache command via the CC table; returns the output message
  /// type (cack/cdata/cwbdata/hit/miss or NULL).
  Value apply_cache(QuadId q, Value cmd, Addr addr);

  /// Applies a node-internal NC input (wbcancel / synthetic retry) via the
  /// NC table — no network message involved.
  void apply_nc_internal(QuadId q, Value type, Addr addr);

  void record_error(std::string what);
  void check_swmr(Addr addr);

  const ProtocolSpec* spec_;
  SimConfig config_;
  Network net_;
  int memory_latency_ = 0;
  int c2c_cost_ = 0;  // precomputed CycleModel::c2c_cycles(n_quads)

  /// The compiled controller tables — shared read-only across a sweep's
  /// machines, or privately compiled by the two-argument constructor.
  std::shared_ptr<const CompiledTables> tables_;

  std::vector<HomeEngine> homes_;
  std::vector<Node> nodes_;
  std::map<Addr, std::int64_t> gv_;  // committed write versions

  std::vector<std::string> errors_;
  std::mt19937 rng_;
  SimCounters counters_;
  /// Per-VC send counts by Network VC code; counters() folds these into
  /// SimCounters::per_vc_sent (a map op per posted message is hot-path
  /// cost the flat array avoids).
  std::vector<std::uint64_t> vc_sent_;
  std::uint64_t now_ = 0;

  // Reusable hot-path scratch (the scheduler loop is allocation-free in
  // steady state; these only grow to high-water marks).
  std::vector<Network::QueueRef> queue_scratch_;
  std::vector<SimMessage> dir_out_;
  std::vector<QuadId> snoop_scratch_;
};

}  // namespace ccsql::sim
