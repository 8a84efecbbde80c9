// The prepared-statement layer underneath serve::Server: SQL normalization
// and cache keys, $N parameter plumbing, the LRU/invalidating PlanCache,
// and build_statement/run_unit/unit_is_empty against the ASURA suite.
#include "serve/plan_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "plan/planner.hpp"
#include "protocol/asura/asura.hpp"
#include "relational/error.hpp"
#include "relational/format.hpp"
#include "relational/parser.hpp"

namespace ccsql::serve {
namespace {

Database small_db() {
  Catalog cat;
  Table d(Schema::of({"dirst", "dirpv"}));
  d.append({V("MESI"), V("one")});
  d.append({V("SI"), V("gone")});
  d.append({V("I"), V("zero")});
  cat.put("D", std::move(d));
  return Database(std::move(cat));
}

TEST(NormalizeSql, CollapsesWhitespaceOutsideQuotes) {
  EXPECT_EQ(normalize_sql("  select   a\tfrom\n T  "), "select a from T");
  EXPECT_EQ(normalize_sql("select a from T where a = \"x  y\""),
            "select a from T where a = \"x  y\"");
  // Case is preserved: identifiers are case-sensitive.
  EXPECT_EQ(normalize_sql("SELECT a FROM T"), "SELECT a FROM T");
}

TEST(NormalizeSql, CacheKeyIsModePlusNormalizedText) {
  const std::string key = cache_key('E', "select  a from T");
  ASSERT_GE(key.size(), 2u);
  EXPECT_EQ(key[0], 'E');
  EXPECT_EQ(key[1], '\x1f');
  EXPECT_EQ(key.substr(2), "select a from T");
  // Equivalent statements collide; different modes never do.
  EXPECT_EQ(cache_key('Q', "select a  from T"), cache_key('Q', "select a from T"));
  EXPECT_NE(cache_key('Q', "select a from T"), cache_key('E', "select a from T"));
}

TEST(Params, ParseBindAndCount) {
  const SelectStmt stmt =
      parse_select("select dirst from D where dirst = $1 and dirpv != $2");
  EXPECT_EQ(param_count(stmt), 2u);
  const SelectStmt bound = bind_params(stmt, {"MESI", "zero"});
  EXPECT_EQ(param_count(bound), 0u);

  Database db = small_db();
  EXPECT_EQ(to_csv(db.query(bound).rows),
            to_csv(db.query("select dirst from D where dirst = \"MESI\" and "
                            "dirpv != \"zero\"")
                       .rows));
}

TEST(Params, UnboundParameterRefusesToCompile) {
  Database db = small_db();
  EXPECT_THROW((void)db.query("select dirst from D where dirst = $1"),
               BindError);
}

TEST(Params, DollarWithoutDigitsIsAParseError) {
  EXPECT_THROW((void)parse_select("select a from T where a = $"), ParseError);
}

TEST(PlanCacheLru, EvictsLeastRecentlyUsedBeyondCapacity) {
  Database db = small_db();
  Snapshot snap = db.snapshot();
  auto build = [&](const char* sql) {
    return build_statement(snap, {parse_select(sql)}, /*exists_mode=*/false);
  };
  PlanCache cache(/*capacity=*/2);
  cache.insert("a", build("select dirst from D"));
  cache.insert("b", build("select dirpv from D"));
  // Touch "a" so "b" is the LRU victim when "c" arrives.
  EXPECT_NE(cache.lookup("a", snap.generation()), nullptr);
  cache.insert("c", build("select dirst, dirpv from D"));

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_NE(cache.lookup("a", snap.generation()), nullptr);
  EXPECT_EQ(cache.lookup("b", snap.generation()), nullptr);
  EXPECT_NE(cache.lookup("c", snap.generation()), nullptr);
}

TEST(PlanCacheLru, GenerationMismatchInvalidatesResidentEntry) {
  Database db = small_db();
  Snapshot snap = db.snapshot();
  PlanCache cache;
  cache.insert("k", build_statement(snap, {parse_select("select dirst from D")},
                                    false));
  // Same generation: hit.
  EXPECT_NE(cache.lookup("k", snap.generation()), nullptr);
  // A writer moved the catalog on: the entry is dropped, not served.
  EXPECT_EQ(cache.lookup("k", snap.generation() + 1), nullptr);
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.entries, 0u);
  // And the key misses cold afterwards, even at the original generation.
  EXPECT_EQ(cache.lookup("k", snap.generation()), nullptr);
}

TEST(PlanCacheLru, TracksEstimatedBytes) {
  Database db = small_db();
  Snapshot snap = db.snapshot();
  PlanCache cache;
  EXPECT_EQ(cache.stats().bytes, 0u);
  cache.insert("k", build_statement(snap, {parse_select("select dirst from D")},
                                    false));
  EXPECT_GT(cache.stats().bytes, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// The fast emptiness probe must agree with the generic executor on every
// invariant of the real protocol — including the corrupted-table case where
// probes must find the violating rows.
TEST(FastEmpty, AgreesWithGenericExecutorOnAsuraSuite) {
  auto spec = asura::make_asura();
  Database db = spec->database();
  Snapshot snap = db.snapshot();
  std::size_t fast_units = 0;
  for (const auto& inv : spec->invariants()) {
    CachedStatementPtr cs =
        build_statement(snap, parse_invariant(inv.sql), /*exists_mode=*/true);
    for (std::size_t u = 0; u < cs->units.size(); ++u) {
      if (cs->units[u].fast) ++fast_units;
      EXPECT_EQ(unit_is_empty(*cs, u), run_unit(*cs, u, 1).row_count() == 0)
          << inv.name << " unit " << u;
      EXPECT_EQ(unit_is_empty(*cs, u), snap.check_empty(cs->units[u].stmt))
          << inv.name << " unit " << u;
    }
  }
  // The probe should cover the bulk of the suite, not a corner of it.
  EXPECT_GT(fast_units, 0u);
}

TEST(FastEmpty, FindsInjectedViolation) {
  auto spec = asura::make_asura();
  Database db = spec->database();
  Table d = db.get("D");
  std::vector<Value> row(d.row(0).begin(), d.row(0).end());
  row[d.schema().index_of("dirst")] = V("MESI");
  row[d.schema().index_of("dirpv")] = V("zero");
  d.append(RowView(row));
  db.put("D", std::move(d));
  Snapshot snap = db.snapshot();

  // dirpv-consistency style probe: MESI directory entries must name an
  // owner, so the corrupted row is a violation the probe must surface.
  const char* sql =
      "select dirst, dirpv from D where dirst = \"MESI\" and dirpv = \"zero\"";
  CachedStatementPtr cs =
      build_statement(snap, {parse_select(sql)}, /*exists_mode=*/true);
  EXPECT_FALSE(unit_is_empty(*cs, 0));
  EXPECT_EQ(unit_is_empty(*cs, 0), snap.check_empty(sql));
}

// ---- FastEmpty batch probes ---------------------------------------------

#ifdef CCSQL_TRACING_DISABLED
constexpr bool kCounters = false;
#else
constexpr bool kCounters = true;
#endif

/// query.rows_scanned added while `fn` runs, with metrics on for the call.
template <typename F>
std::uint64_t rows_scanned_by(F&& fn) {
  obs::Tracer& tracer = obs::Tracer::global();
  const bool was_on = tracer.metrics_enabled();
  tracer.enable_metrics(true);
  const std::uint64_t before = tracer.metrics().counter("query.rows_scanned");
  fn();
  const std::uint64_t after = tracer.metrics().counter("query.rows_scanned");
  tracer.enable_metrics(was_on);
  return after - before;
}

struct Override {
  std::size_t row;
  const char* a;
  const char* b;
};

/// P(k, a, b) over `n` rows: k alternates x/y (bucket x is the even rows),
/// a = a0 and b = b0 except on the overridden rows.
Database probe_db(std::size_t n, const std::vector<Override>& overrides) {
  Table p(Schema::of({"k", "a", "b"}));
  for (std::size_t i = 0; i < n; ++i) {
    const char* a = "a0";
    const char* b = "b0";
    for (const Override& o : overrides) {
      if (o.row == i) {
        a = o.a;
        b = o.b;
      }
    }
    p.append({V(i % 2 == 0 ? "x" : "y"), V(a), V(b)});
  }
  Catalog cat;
  cat.put("P", std::move(p));
  return Database(std::move(cat));
}

struct ProbeOutcome {
  bool empty = false;
  std::uint64_t scanned = 0;
};

/// Builds the exists-mode statement, asserts it takes the FastEmpty probe
/// with at least `min_filters` stacked filters (over an index bucket when
/// `bucket`), checks the verdict against the planner's exists-mode
/// run_select, and reports the probe's verdict and rows scanned.
ProbeOutcome probe(const Database& db, const char* sql, bool bucket,
                   std::size_t min_filters) {
  Snapshot snap = db.snapshot();
  CachedStatementPtr cs =
      build_statement(snap, {parse_select(sql)}, /*exists_mode=*/true);
  ProbeOutcome out;
  const auto& fast = cs->units.at(0).fast;
  EXPECT_TRUE(fast.has_value()) << sql;
  if (!fast) return out;
  EXPECT_EQ(fast->index != nullptr, bucket) << sql;
  EXPECT_GE(fast->filters.size(), min_filters) << sql;
  out.scanned = rows_scanned_by([&] { out.empty = unit_is_empty(*cs, 0); });
  plan::PlannerOptions opts;
  opts.exists_only = true;
  EXPECT_EQ(out.empty,
            plan::run_select(snap.catalog(), parse_select(sql), opts)
                    .row_count() == 0)
      << sql;
  EXPECT_EQ(out.empty, snap.query(sql).row_count() == 0) << sql;
  return out;
}

TEST(FastEmpty, BucketProbeCountsUpToFirstPassingRow) {
  // Bucket x is rows 0, 2, 4, ...; the only hit, row 6, is 4th in it.
  // (Equalities all fold into the index key, so the filters use IN/NOT.)
  const Database db = probe_db(20, {{6, "hit", "b0"}});
  const ProbeOutcome found =
      probe(db, "select a from P where k = x and a in (hit)", true, 1);
  EXPECT_FALSE(found.empty);
  if (kCounters) EXPECT_EQ(found.scanned, 4u);
  const ProbeOutcome none =
      probe(db, "select a from P where k = x and a in (miss)", true, 1);
  EXPECT_TRUE(none.empty);
  if (kCounters) EXPECT_EQ(none.scanned, 10u);  // the whole bucket
}

TEST(FastEmpty, StackedSelectChainOverBucket) {
  // Row 4 (bucket position 3) passes the first filter only; row 12
  // (position 7) passes both.
  const Database db =
      probe_db(20, {{4, "hit", "no"}, {12, "hit", "yes"}});
  const ProbeOutcome found = probe(
      db, "select a from P where k = x and a in (hit) and not b = no", true,
      2);
  EXPECT_FALSE(found.empty);
  if (kCounters) EXPECT_EQ(found.scanned, 7u);
  const ProbeOutcome none = probe(
      db, "select a from P where k = x and a in (hit) and not b = no and "
          "not b = yes",
      true, 2);
  EXPECT_TRUE(none.empty);
  if (kCounters) EXPECT_EQ(none.scanned, 10u);
}

TEST(FastEmpty, FullScanProbeCrossesBatches) {
  // 3000 rows, three 1024-row batches: row 1500 passes the first filter
  // only, row 2500 passes both.
  const Database db =
      probe_db(3000, {{1500, "z", "b0"}, {2500, "z", "w"}});
  const ProbeOutcome found =
      probe(db, "select a from P where not a = a0 and not b = b0", false, 2);
  EXPECT_FALSE(found.empty);
  if (kCounters) EXPECT_EQ(found.scanned, 2501u);
  const ProbeOutcome none = probe(
      db, "select a from P where not a = a0 and not b = b0 and not b = w",
      false, 2);
  EXPECT_TRUE(none.empty);
  if (kCounters) EXPECT_EQ(none.scanned, 3000u);  // the whole table
}

TEST(RunUnit, MatchesDatabaseQueryResults) {
  auto spec = asura::make_asura();
  Database db = spec->database();
  Snapshot snap = db.snapshot();
  const char* sql =
      "select inmsg, bdirst, locmsg from D where isrequest(inmsg) and "
      "not bdirst = \"I\" and not locmsg = \"retry\"";
  CachedStatementPtr cs =
      build_statement(snap, {parse_select(sql)}, /*exists_mode=*/false);
  EXPECT_EQ(to_csv(run_unit(*cs, 0, 1)), to_csv(db.query(sql).rows));
}

}  // namespace
}  // namespace ccsql::serve
