#include "reach_oracle.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <unordered_set>

#include "obs/obs.hpp"
#include "sim/machine.hpp"

namespace ccsql::oracle {

ReachResult explore(const ProtocolSpec& spec, const ChannelAssignment& v,
                    const ReachConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  CCSQL_SPAN(span, "reach.explore", "checks");

  sim::SimConfig sim_cfg;
  sim_cfg.n_quads = config.n_quads;
  sim_cfg.n_addrs = config.n_addrs;
  sim_cfg.channel_capacity = config.channel_capacity;
  sim_cfg.transactions_per_node = config.ops_per_node;
  sim_cfg.transactions_by_node = config.ops_by_node;
  sim_cfg.workload_ops = config.inject_ops;

  sim::Machine machine(spec, v, sim_cfg);
  machine.enable_random_workload();  // sets the per-node injection budget

  ReachResult result;
  std::unordered_set<std::string> visited;
  std::unordered_set<std::string> violations_seen;
  std::deque<sim::Machine::Snapshot> frontier;

  visited.insert(machine.fingerprint());
  frontier.push_back(machine.snapshot());
  result.states = 1;
  result.complete = true;

  while (!frontier.empty()) {
    if (result.states >= config.max_states) {
      result.complete = false;
      break;
    }
    if ((result.states & 0xfff) == 0) {
      CCSQL_INSTANT(
          "reach.progress", "checks", obs::arg("states", result.states),
          obs::arg("frontier", frontier.size()),
          obs::arg("states_per_sec",
                   result.states /
                       std::max(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - start)
                                    .count(),
                                1e-9)));
    }
    sim::Machine::Snapshot state = std::move(frontier.front());
    frontier.pop_front();

    machine.restore(state);
    const auto actions = machine.possible_actions();
    bool any_fired = false;
    for (const auto& action : actions) {
      machine.restore(state);
      machine.clear_errors();
      if (!machine.apply_action(action)) continue;  // blocked channel
      any_fired = true;
      ++result.transitions;
      for (const auto& e : machine.errors()) {
        if (violations_seen.insert(e).second) {
          result.violations.push_back(e + "  [after " + action.to_string() +
                                      "]");
        }
      }
      const std::string fp = machine.fingerprint();
      if (visited.insert(fp).second) {
        ++result.states;
        frontier.push_back(machine.snapshot());
      }
    }

    if (!any_fired) {
      // Terminal state: quiescent-and-done is fine; anything else with
      // messages in flight is a global deadlock.
      machine.restore(state);
      if (!machine.quiescent()) {
        if (result.deadlock_states++ == 0) {
          result.deadlock_example = machine.describe_network();
          if (config.stop_at_first_deadlock) {
            result.complete = false;
            break;
          }
        }
      } else {
        // Quiescent terminal state: run the directory/cache agreement
        // check the simulator applies at completion.
        for (const auto& e : machine.check_quiescent_state()) {
          if (violations_seen.insert(e).second) {
            result.violations.push_back(e + "  [terminal state]");
          }
        }
      }
    }
  }

  const auto end = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(end - start).count();
  span.arg("states", result.states);
  span.arg("transitions", result.transitions);
  span.arg("deadlock_states", result.deadlock_states);
  CCSQL_COUNT("reach.states", result.states);
  CCSQL_COUNT("reach.transitions", result.transitions);
  CCSQL_COUNT("reach.deadlock_states", result.deadlock_states);
  CCSQL_OBSERVE("reach.states_per_sec",
                result.states / std::max(result.seconds, 1e-9));
  return result;
}

}  // namespace ccsql::oracle
