// Row-order golden: every generated controller table — the eight ASURA
// tables, the extended directory table ED and the three snoopbus tables —
// is pinned by its row count and an FNV-1a digest of its CSV rendering.
// Unlike Golden.ReadexTransactionSliceMatchesPinnedCsv (which sorts its
// slice), the digest covers row order, so a generator that emits the same
// rows in a different order fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "mapping/asura_map.hpp"
#include "protocol/asura/asura.hpp"
#include "protocol/snoopbus/snoopbus.hpp"
#include "relational/format.hpp"

namespace ccsql {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Pinned {
  const char* table;
  std::size_t rows;
  std::uint64_t digest;
};

void expect_pinned(const Table& t, const Pinned& p) {
  const std::string csv = to_csv(t);
  EXPECT_EQ(t.row_count(), p.rows) << p.table;
  EXPECT_EQ(fnv1a(csv), p.digest)
      << p.table << " rows or row order changed; digest now 0x" << std::hex
      << fnv1a(csv);
}

TEST(GenerationGolden, AsuraTablesInPinnedRowOrder) {
  const auto spec = asura::make_asura();
  const Pinned pinned[] = {
      {"D", 331, 0xf649bdfc43148cb1ull}, {"M", 5, 0x5a641f7d1916d6ffull},
      {"NC", 36, 0xf9e2ec34109d5e6cull}, {"CC", 24, 0xebd66936991f04f7ull},
      {"RSN", 6, 0xf6d170bf495f32bcull}, {"RAC", 30, 0x66daa719dd009f16ull},
      {"IOC", 6, 0x07263cbf84e56891ull}, {"INT", 5, 0x2e6f179167a36bc0ull},
  };
  for (const Pinned& p : pinned) {
    expect_pinned(spec->controller(p.table).generate(&spec->functions()), p);
  }
}

TEST(GenerationGolden, ExtendedDirectoryInPinnedRowOrder) {
  const auto spec = asura::make_asura();
  const ControllerSpec ed = mapping::make_extended_directory(*spec);
  expect_pinned(ed.generate(&spec->functions()),
                {"ED", 670, 0xdb9cf7d5840836a6ull});
}

TEST(GenerationGolden, SnoopbusTablesInPinnedRowOrder) {
  const auto spec = snoopbus::make_snoopbus();
  const Pinned pinned[] = {
      {snoopbus::kCache, 34, 0x6d7c40d579e6162cull},
      {snoopbus::kMemory, 6, 0x4cdcf23f5589971dull},
      {snoopbus::kArbiter, 3, 0x27d582daa63a4971ull},
  };
  for (const Pinned& p : pinned) {
    expect_pinned(spec->controller(p.table).generate(&spec->functions()), p);
  }
}

}  // namespace
}  // namespace ccsql
