#include "sim/dispatch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "protocol/asura/asura.hpp"
#include "relational/error.hpp"
#include "sim/machine.hpp"
#include "table_index.hpp"

namespace ccsql::sim {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

/// Dense dispatch must agree with the TableIndex oracle on every row of a
/// controller table: same hit rows, same cell values through column handles.
TEST(ControllerDispatch, DenseMatchesTableIndexOnEveryRow) {
  const Table& cc = spec().database().catalog().get(asura::kCache);
  const std::vector<std::string> keys = {"inmsg", "cst"};
  ControllerDispatch dense(asura::kCache, cc, keys);
  oracle::TableIndex oracle(cc, keys);
  const auto d_nxt = dense.col("nxtcst");
  const auto d_out = dense.col("outmsg");

  const ColumnView in_col = cc.column("inmsg");
  const ColumnView st_col = cc.column("cst");
  for (std::size_t r = 0; r < cc.row_count(); ++r) {
    const Value in = in_col[r];
    const Value st = st_col[r];
    const auto dr = dense.find({in, st});
    const auto orc = oracle.find({in, st});
    ASSERT_TRUE(dr.has_value());
    ASSERT_TRUE(orc.has_value());
    EXPECT_EQ(*dr, *orc);
    EXPECT_EQ(dense.at(*dr, d_nxt), oracle.at(*orc, "nxtcst"));
    EXPECT_EQ(dense.at(*dr, d_out), oracle.at(*orc, "outmsg"));
  }
}

TEST(ControllerDispatch, MissesAgree) {
  const Table& cc = spec().database().catalog().get(asura::kCache);
  ControllerDispatch dense(asura::kCache, cc, {"inmsg", "cst"});
  oracle::TableIndex oracle(cc, {"inmsg", "cst"});
  // A symbol that never appears in the key columns, and a legal symbol in
  // the wrong column.
  const Value nosuch = Symbol::intern("definitely-not-a-message");
  const Value st = Symbol::intern("I");
  EXPECT_FALSE(dense.find({nosuch, st}).has_value());
  EXPECT_FALSE(oracle.find({nosuch, st}).has_value());
  EXPECT_FALSE(dense.find({st, nosuch}).has_value());
  EXPECT_FALSE(oracle.find({st, nosuch}).has_value());
}

/// One compiled controller as the Machine uses it: its lookup key and every
/// output column it reads, with the handle CompiledTables resolved for it.
struct ControllerUse {
  const char* table;
  const ControllerDispatch* dispatch;
  std::vector<std::string> keys;
  std::vector<std::pair<std::string, ControllerDispatch::Col>> outputs;
};

std::optional<std::size_t> find_key(const ControllerDispatch& d,
                                    const std::vector<Value>& k) {
  switch (k.size()) {
    case 1:
      return d.find({k[0]});
    case 2:
      return d.find({k[0], k[1]});
    case 6:
      return d.find({k[0], k[1], k[2], k[3], k[4], k[5]});
    default:
      ADD_FAILURE() << "unexpected key width " << k.size();
      return std::nullopt;
  }
}

/// The exhaustive differential: for each of the six compiled controllers,
/// every key tuple in the product of the key columns' domains — each domain
/// widened by a symbol that appears in no key column — must resolve to the
/// same row (or the same miss) as the TableIndex oracle, and every output
/// column the Machine reads must return the oracle's cell.
TEST(ControllerDispatch, ExhaustiveDifferentialAgainstTableIndex) {
  const auto t = CompiledTables::compile(spec());
  const std::vector<ControllerUse> uses = {
      {asura::kDirectory,
       &t->d,
       {"inmsg", "dirst", "dirlookup", "dirpv", "bdirst", "bdirpv"},
       {{"locmsg", t->dc.locmsg},
        {"remmsg", t->dc.remmsg},
        {"memmsg", t->dc.memmsg},
        {"datapath", t->dc.datapath},
        {"nxtdirst", t->dc.nxtdirst},
        {"nxtdirpv", t->dc.nxtdirpv},
        {"nxtbdirst", t->dc.nxtbdirst},
        {"nxtbdirpv", t->dc.nxtbdirpv},
        {"bdirop", t->dc.bdirop}}},
      {asura::kMemory,
       &t->m,
       {"inmsg"},
       {{"outmsg", t->mc.outmsg}, {"memop", t->mc.memop}}},
      {asura::kNode,
       &t->nc,
       {"inmsg", "ncst"},
       {{"netmsg", t->ncc.netmsg},
        {"fillmsg", t->ncc.fillmsg},
        {"nxtncst", t->ncc.nxtncst},
        {"nccmpl", t->ncc.nccmpl}}},
      {asura::kCache,
       &t->cc,
       {"inmsg", "cst"},
       {{"nxtcst", t->ccc.nxtcst}, {"outmsg", t->ccc.outmsg}}},
      {asura::kRemoteSnoop,
       &t->rsn,
       {"inmsg", "rsnst"},
       {{"cmdmsg", t->rsnc.cmdmsg},
        {"nxtrsnst", t->rsnc.nxtrsnst},
        {"homemsg", t->rsnc.homemsg}}},
      {asura::kIo,
       &t->ioc,
       {"inmsg", "iocst"},
       {{"outmsg", t->iocc.outmsg},
        {"devmsg", t->iocc.devmsg},
        {"nxtiocst", t->iocc.nxtiocst}}},
  };
  const Value outside = Symbol::intern("not-in-any-key-domain");

  for (const ControllerUse& use : uses) {
    SCOPED_TRACE(use.table);
    const Table& table = spec().database().catalog().get(use.table);
    ASSERT_EQ(&use.dispatch->table(), &table);
    oracle::TableIndex oracle(table, use.keys);

    std::vector<std::vector<Value>> domains;
    for (const auto& key : use.keys) {
      const ColumnView col = table.column(key);
      std::set<std::uint32_t> seen;
      std::vector<Value> domain;
      for (std::size_t r = 0; r < table.row_count(); ++r) {
        if (seen.insert(col[r].id()).second) domain.push_back(col[r]);
      }
      domain.push_back(outside);
      domains.push_back(std::move(domain));
    }

    // Odometer over the product of the widened domains.
    std::vector<std::size_t> pos(domains.size(), 0);
    std::vector<Value> key(domains.size());
    std::size_t tuples = 0, hits = 0;
    for (bool more = true; more; ++tuples) {
      for (std::size_t k = 0; k < key.size(); ++k) key[k] = domains[k][pos[k]];
      const auto got = find_key(*use.dispatch, key);
      const auto want = oracle.find(key);
      ASSERT_EQ(got, want) << "tuple " << tuples;
      if (got) {
        ++hits;
        for (const auto& [name, handle] : use.outputs) {
          ASSERT_EQ(use.dispatch->at(*got, handle), oracle.at(*want, name))
              << name << " at row " << *got;
        }
      }
      more = false;
      for (std::size_t k = 0; k < pos.size() && !more; ++k) {
        if (++pos[k] < domains[k].size()) {
          more = true;
        } else {
          pos[k] = 0;
        }
      }
    }
    EXPECT_EQ(hits, table.row_count());  // every row is reachable by its key
    EXPECT_GT(tuples, hits);             // and the misses were exercised
  }
}

/// A key space past kDenseLimit is refused at compile time, with the table
/// named: 4 key columns of 64 symbols each need 64^4 = 16,777,216 slots.
TEST(ControllerDispatch, KeySpaceOverDenseLimitThrows) {
  Table t(Schema::of({"k0", "k1", "k2", "k3", "out"}));
  for (int i = 0; i < 64; ++i) {
    const Value v = Symbol::intern("wide" + std::to_string(i));
    t.append({v, v, v, v, v});
  }
  try {
    ControllerDispatch d("WIDE", t, {"k0", "k1", "k2", "k3"});
    FAIL() << "compiled a 64^4-slot key space";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("WIDE"), std::string::npos) << what;
    EXPECT_NE(what.find("16777216"), std::string::npos) << what;
  }
  // Three of the columns fit (262,144 slots).
  EXPECT_NO_THROW(ControllerDispatch("WIDE", t, {"k0", "k1", "k2"}));
}

TEST(CompiledTables, DenseIsSharedAcrossMachines) {
  auto tables = CompiledTables::compile(spec());
  SimConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 4;
  cfg.channel_capacity = 2;
  cfg.transactions_per_node = 10;
  Machine a(spec(), spec().assignment(asura::kAssignV5Fix), cfg, tables);
  Machine b(spec(), spec().assignment(asura::kAssignV5Fix), cfg, tables);
  a.enable_workload();
  b.enable_workload();
  const SimResult ra = a.run();
  const SimResult rb = b.run();
  EXPECT_TRUE(ra.healthy());
  EXPECT_TRUE(rb.healthy());
  // Same compiled tables, same config, same seed: identical trajectories.
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

/// FNV-1a over the final-state fingerprint string.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// A V5fix run on 4 quads x 8 addresses, channel capacity 2, 40
/// transactions per node and memory latency 3, with its recorded outcome.
/// The figures were captured from a build that still carried the hashed
/// TableIndex dispatch, with the dense and hashed engines agreeing on every
/// field.  The fingerprint hash covers symbol ids, which make_asura fixes
/// when it runs before any other interning in the process (spec() below).
struct Golden {
  Workload workload;
  unsigned seed;
  std::uint64_t steps;
  int transactions;
  std::uint64_t msgs_sent, msgs_recv, send_stalls, cycles, table_hits;
  std::uint64_t fingerprint;
};

void expect_replays(const Golden& g) {
  SCOPED_TRACE(std::string(workload_name(g.workload)) + " seed " +
               std::to_string(g.seed));
  SimConfig cfg;
  cfg.n_quads = 4;
  cfg.n_addrs = 8;
  cfg.channel_capacity = 2;
  cfg.transactions_per_node = 40;
  cfg.workload = g.workload;
  cfg.seed = g.seed;
  Machine m(spec(), spec().assignment(asura::kAssignV5Fix), cfg);
  m.set_memory_latency(3);
  m.enable_workload();
  const SimResult r = m.run();
  ASSERT_TRUE(r.healthy());
  EXPECT_EQ(r.steps, g.steps);
  EXPECT_EQ(r.transactions_done, g.transactions);
  EXPECT_EQ(r.counters.msgs_sent, g.msgs_sent);
  EXPECT_EQ(r.counters.msgs_recv, g.msgs_recv);
  EXPECT_EQ(r.counters.send_stalls, g.send_stalls);
  EXPECT_EQ(r.counters.cycles, g.cycles);
  EXPECT_EQ(r.counters.table_hits, g.table_hits);
  EXPECT_EQ(r.counters.table_misses, 0u);
  EXPECT_EQ(fnv1a(m.fingerprint()), g.fingerprint);
}

TEST(SimGolden, RandomWorkloadReplays) {
  expect_replays({Workload::kRandom, 7, 255, 160, 1260, 1260, 1, 16598, 1845,
                  0x734ff75641b5ae06ull});
  expect_replays({Workload::kRandom, 1234, 242, 160, 1206, 1206, 0, 15174,
                  1741, 0xce555265e0543c42ull});
}

TEST(SimGolden, ShapedWorkloadsReplay) {
  expect_replays({Workload::kLock, 7, 318, 160, 1374, 1374, 0, 12648, 1829,
                  0x2930f05c61bcc570ull});
  expect_replays({Workload::kProducerConsumer, 7, 244, 160, 1572, 1572, 0,
                  20824, 2564, 0xba62b784757bf318ull});
  expect_replays({Workload::kFalseSharing, 7, 182, 160, 816, 816, 0, 7332,
                  1095, 0x96be5b83114846deull});
  expect_replays({Workload::kStreaming, 7, 232, 160, 1460, 1460, 0, 20516,
                  2452, 0x8561b7f3b9e45e0cull});
}

}  // namespace
}  // namespace ccsql::sim
