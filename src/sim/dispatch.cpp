#include "sim/dispatch.hpp"

#include <limits>

#include "protocol/asura/asura.hpp"
#include "protocol/protocol_spec.hpp"
#include "relational/error.hpp"

namespace ccsql::sim {

ControllerDispatch::ControllerDispatch(
    std::string_view name, const Table& table,
    const std::vector<std::string>& key_columns)
    : table_(&table) {
  // One code table per key column: the distinct symbols appearing in the
  // column, densely renumbered.  A queried symbol outside the column's
  // domain can match no row, so code 0 doubles as an early miss.
  std::vector<ColumnView> cols;
  cols.reserve(key_columns.size());
  for (const auto& col : key_columns) {
    cols.push_back(table.column(table.schema().index_of(col)));
  }
  key_cols_.resize(cols.size());
  std::size_t slots = 1;  // saturates at SIZE_MAX
  for (std::size_t k = 0; k < cols.size(); ++k) {
    KeyCol& kc = key_cols_[k];
    std::uint16_t next = 0;
    for (std::size_t r = 0; r < table.row_count(); ++r) {
      const std::uint32_t id = cols[k][r].id();
      if (id >= kc.codes.size()) kc.codes.resize(id + 1, 0);
      if (kc.codes[id] == 0) kc.codes[id] = ++next;
    }
    kc.stride = static_cast<std::uint32_t>(slots);  // used only if it fits
    const std::size_t card = next == 0 ? 1 : next;
    slots = slots > std::numeric_limits<std::size_t>::max() / card
                ? std::numeric_limits<std::size_t>::max()
                : slots * card;
  }
  if (slots > kDenseLimit) {
    throw Error("ControllerDispatch: table " + std::string(name) +
                " needs " + std::to_string(slots) +
                " key slots, over the dense limit of " +
                std::to_string(kDenseLimit));
  }
  dense_rows_.assign(slots, -1);
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    std::size_t idx = 0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      idx += static_cast<std::size_t>(key_cols_[k].codes[cols[k][r].id()] -
                                      1) *
             key_cols_[k].stride;
    }
    if (dense_rows_[idx] >= 0) {
      throw Error("ControllerDispatch: duplicate key tuple at row " +
                  std::to_string(r) + " of table " + std::string(name));
    }
    dense_rows_[idx] = static_cast<std::int32_t>(r);
  }
}

ControllerDispatch::Col ControllerDispatch::col(std::string_view name) {
  const Col handle = static_cast<Col>(col_data_.size());
  col_data_.push_back(table_->column(table_->schema().index_of(name)).data());
  return handle;
}

namespace {

ControllerDispatch compile_one(const ProtocolSpec& spec, const char* name,
                               const std::vector<std::string>& keys) {
  return ControllerDispatch(name, spec.database().catalog().get(name), keys);
}

}  // namespace

CompiledTables::CompiledTables(const ProtocolSpec& spec)
    : d(compile_one(spec, asura::kDirectory,
                    {"inmsg", "dirst", "dirlookup", "dirpv", "bdirst",
                     "bdirpv"})),
      m(compile_one(spec, asura::kMemory, {"inmsg"})),
      nc(compile_one(spec, asura::kNode, {"inmsg", "ncst"})),
      cc(compile_one(spec, asura::kCache, {"inmsg", "cst"})),
      rsn(compile_one(spec, asura::kRemoteSnoop, {"inmsg", "rsnst"})),
      ioc(compile_one(spec, asura::kIo, {"inmsg", "iocst"})) {
  dc = {d.col("locmsg"),   d.col("remmsg"),   d.col("memmsg"),
        d.col("datapath"), d.col("nxtdirst"), d.col("nxtdirpv"),
        d.col("nxtbdirst"), d.col("nxtbdirpv"), d.col("bdirop")};
  mc = {m.col("outmsg"), m.col("memop")};
  ncc = {nc.col("netmsg"), nc.col("fillmsg"), nc.col("nxtncst"),
         nc.col("nccmpl")};
  ccc = {cc.col("nxtcst"), cc.col("outmsg")};
  rsnc = {rsn.col("cmdmsg"), rsn.col("nxtrsnst"), rsn.col("homemsg")};
  iocc = {ioc.col("outmsg"), ioc.col("devmsg"), ioc.col("nxtiocst")};
}

std::shared_ptr<const CompiledTables> CompiledTables::compile(
    const ProtocolSpec& spec, ControllerDispatch::Mode) {
  return std::shared_ptr<const CompiledTables>(new CompiledTables(spec));
}

}  // namespace ccsql::sim
