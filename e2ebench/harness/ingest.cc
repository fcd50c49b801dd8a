// tpch_ingest: every iteration loads TPC-H SF 0.05 into a fresh paged
// MiniDB through the bulk-load fast path, checkpoints it, then runs seeded
// primary-key point lookups through SQL. The data is far larger than the
// buffer pool, so the reads exercise the storage read path.

#include "dbsynth/schema_translator.h"
#include "harness/bench.h"
#include "minidb/database.h"
#include "minidb/sql.h"
#include "minidb/storage/paged_engine.h"
#include "util/files.h"

namespace e2ebench {
namespace {

constexpr const char* kScaleFactor = "0.05";
// Lookups per iteration. Fixed so the lookup count, and with it the tail
// percentile the rule picks, moves only with the iteration count.
constexpr int kLookupsPerIteration = 250;
constexpr const char* kLookupTables[] = {"orders", "customer", "part"};

struct PoolCounters {
  uint64_t hits = 0, misses = 0, evictions = 0, writebacks = 0;
};

PoolCounters SumPoolCounters(minidb::Database* db,
                             const pdgf::SchemaDef& schema) {
  PoolCounters sum;
  for (const pdgf::TableDef& def : schema.tables) {
    minidb::Table* table = db->GetTable(def.name);
    if (table == nullptr) continue;
    auto* paged =
        dynamic_cast<minidb::storage::PagedEngine*>(table->engine());
    if (paged == nullptr) continue;
    sum.hits += paged->pool().hits();
    sum.misses += paged->pool().misses();
    sum.evictions += paged->pool().evictions();
    sum.writebacks += paged->pool().writebacks();
  }
  return sum;
}

// The stored row must equal the generated row after column coercion.
bool LookupMatches(const pdgf::GenerationSession& session, int table,
                   uint64_t row, const minidb::Table& stored,
                   const minidb::ResultSet& result) {
  if (result.rows.size() != 1) return false;
  std::vector<pdgf::Value> generated;
  session.GenerateRow(table, row, 0, &generated);
  const auto& columns = stored.schema().columns;
  if (generated.size() != columns.size() ||
      result.rows[0].size() != columns.size()) {
    return false;
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    auto coerced = minidb::CoerceValue(columns[c], generated[c]);
    if (!coerced.ok() || !(*coerced == result.rows[0][c])) return false;
  }
  return true;
}

void CheckCounts(const pdgf::GenerationSession& session,
                 minidb::Database* db, Result* result) {
  for (size_t t = 0; t < session.schema().tables.size(); ++t) {
    const std::string& name = session.schema().tables[t].name;
    auto counted = minidb::ExecuteSql(db, "SELECT COUNT(*) FROM " + name);
    const uint64_t expected = session.TableRows(static_cast<int>(t));
    std::string actual = "no rows";
    if (!counted.ok()) {
      actual = counted.status().ToString();
    } else if (counted->rows.size() == 1 && !counted->rows[0].empty()) {
      actual = counted->rows[0][0].ToText();
    }
    result->Check("ingest.count." + name, actual == std::to_string(expected),
                  "COUNT(*)=" + actual + " TableRows=" +
                      std::to_string(expected));
  }
}

uint64_t CsvBytes(const pdgf::GenerationSession& session) {
  uint64_t bytes = 0;
  for (size_t t = 0; t < session.schema().tables.size(); ++t) {
    const int table = static_cast<int>(t);
    bytes += RenderRows(session, table, 0, session.TableRows(table)).bytes;
  }
  return bytes;
}

struct LookupTarget {
  std::string name;
  int table;
  std::string key_column;
};

// One ingest run: the state shared by its iterations.
class IngestRun {
 public:
  IngestRun(const Settings& settings, Result* result)
      : settings_(settings),
        result_(result),
        rng_(Rng(settings.seed).Next() ^ 0x1e57) {}

  uint64_t disk_bytes() const { return disk_bytes_; }
  Tracer& tracer() { return tracer_; }

  // Sets up the model, then creates, loads and checkpoints a fresh
  // database in `dir` and runs the read phase against it. Returns the
  // model so the caller can check against it after the run.
  pdgf::StatusOr<Model> Iterate(uint64_t op, const std::string& dir) {
    const bool traced = settings_.trace && op % 2 == 1;
    tracer_.enabled = traced;
    const std::string prefix = traced ? "traced." : "";
    Tracer::Scope iteration(&tracer_, "bench.iteration", op);
    // Set-up is repeated before every iteration so setup_s samples the
    // whole run, not one instant of it.
    int64_t start = NowNs();
    Model model;
    {
      Tracer::Scope span(&tracer_, "core.session.create", op);
      PDGF_ASSIGN_OR_RETURN(model, SetUpModel(settings_.seed, kScaleFactor));
    }
    result_->Add("setup_s", (NowNs() - start) / 1e9);
    const pdgf::GenerationSession& session = *model.session;
    const pdgf::SchemaDef& schema = *model.schema;
    uint64_t total_rows = 0;
    for (size_t t = 0; t < schema.tables.size(); ++t) {
      total_rows += session.TableRows(static_cast<int>(t));
    }
    result_->scalars["rows_per_iteration"] = static_cast<double>(total_rows);

    ResetPeakRss();
    minidb::EngineConfig config;
    config.kind = minidb::EngineKind::kPaged;
    config.data_dir = dir;
    minidb::Database db(config);
    ++result_->attempted;
    start = NowNs();
    pdgf::Status status;
    {
      Tracer::Scope span(&tracer_, "minidb.open", op);
      status = dbsynth::CreateTargetSchema(schema, &db);
    }
    const int64_t load_start = NowNs();
    pdgf::StatusOr<uint64_t> loaded = uint64_t{0};
    if (status.ok()) {
      Tracer::Scope span(&tracer_, "minidb.load", op);
      loaded = dbsynth::FastLoadGeneratedData(session, &db);
    }
    const int64_t load_end = NowNs();
    if (status.ok() && loaded.ok()) {
      Tracer::Scope span(&tracer_, "minidb.checkpoint", op);
      status = db.CheckpointAll();
    }
    const int64_t end = NowNs();
    if (!status.ok() || !loaded.ok() || *loaded != total_rows) {
      ++result_->failed;
      Fail(!status.ok()   ? status.ToString()
           : !loaded.ok() ? loaded.status().ToString()
                          : "loaded " + std::to_string(*loaded) + " rows");
      return model;
    }
    result_->Add(prefix + "load_iteration_s", (end - start) / 1e9);
    result_->Add(prefix + "load_s", (load_end - load_start) / 1e9);
    result_->Add(prefix + "checkpoint_s", (end - load_end) / 1e9);
    const uint64_t bytes = DirectoryBytes(dir);
    if (disk_bytes_ != 0 && bytes != disk_bytes_) {
      Fail("bytes on disk " + std::to_string(bytes) + " != " +
           std::to_string(disk_bytes_));
    }
    disk_bytes_ = bytes;
    if (op == 0) CheckCounts(session, &db, result_);

    std::vector<LookupTarget> targets;
    for (const char* name : kLookupTables) {
      const int table = schema.FindTableIndex(name);
      const pdgf::TableDef& def = schema.tables[static_cast<size_t>(table)];
      targets.push_back({name, table, def.fields[0].name});
    }
    Tracer::Scope reads(&tracer_, "bench.read_phase", op);
    for (int i = 0; i < kLookupsPerIteration; ++i) {
      const LookupTarget& target = targets[rng_.Below(targets.size())];
      const uint64_t row = rng_.Below(session.TableRows(target.table));
      pdgf::Value key;
      session.GenerateField(target.table, 0, row, 0, &key);
      const std::string sql = "SELECT * FROM " + target.name + " WHERE " +
                              target.key_column + " = " + key.ToText();
      ++result_->attempted;
      const int64_t lookup_start = NowNs();
      pdgf::StatusOr<minidb::ResultSet> found = minidb::ResultSet{};
      {
        Tracer::Scope span(&tracer_, "minidb.sql", op);
        found = minidb::ExecuteSql(&db, sql);
      }
      result_->Add(prefix + "op_ms", (NowNs() - lookup_start) / 1e6);
      if (!found.ok() || !LookupMatches(session, target.table, row,
                                        *db.GetTable(target.name), *found)) {
        ++result_->failed;
        Fail(found.ok() ? "wrong row for " + sql : found.status().ToString());
      }
    }
    result_->Add("peak_rss_mb", PeakRssMb());
    const PoolCounters pool = SumPoolCounters(&db, schema);
    result_->Add("pool.hits", static_cast<double>(pool.hits));
    result_->Add("pool.misses", static_cast<double>(pool.misses));
    result_->Add("pool.evictions", static_cast<double>(pool.evictions));
    result_->Add("pool.writebacks", static_cast<double>(pool.writebacks));
    return model;
  }

  void Finish() {
    result_->Check("ingest.loads_and_lookups", failures_ == 0, first_error_);
  }

 private:
  void Fail(const std::string& what) {
    ++failures_;
    if (first_error_.empty()) first_error_ = what;
  }

  const Settings& settings_;
  Result* result_;
  Rng rng_;
  Tracer tracer_;
  uint64_t disk_bytes_ = 0;
  uint64_t failures_ = 0;
  std::string first_error_;
};

}  // namespace

pdgf::Status RunIngest(const Settings& settings, Result* result) {
  IngestRun run(settings, result);
  Tracer& tracer = run.tracer();
  Model model;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(settings.seconds * 1e9);
  for (uint64_t op = 0; NowNs() < deadline; ++op) {
    const std::string dir =
        pdgf::JoinPath(settings.work_dir, "db" + std::to_string(op));
    PDGF_ASSIGN_OR_RETURN(model, run.Iterate(op, dir));
    Tracer::Scope cleanup(&tracer, "bench.cleanup", op);
    RemoveTree(dir);
  }
  run.Finish();
  const pdgf::GenerationSession& session = *model.session;
  result->scalars["disk_bytes"] = static_cast<double>(run.disk_bytes());
  result->scalars["csv_bytes"] = static_cast<double>(CsvBytes(session));

  if (settings.trace) {
    tracer.enabled = true;
    // Scalar generation of the same rows with no storage: the share of
    // load time that is generation rather than MiniDB work.
    std::vector<pdgf::Value> row;
    for (int round = 0; round < 2; ++round) {
      Tracer::Scope span(&tracer, "core.session.generate_rows");
      const int64_t start = NowNs();
      for (size_t t = 0; t < model.schema->tables.size(); ++t) {
        const int table = static_cast<int>(t);
        for (uint64_t r = 0; r < session.TableRows(table); ++r) {
          session.GenerateRow(table, r, 0, &row);
        }
      }
      result->Add("generate_s", (NowNs() - start) / 1e9);
    }
    RunLayerProbes(settings, &tracer, result);
    result->spans = std::move(tracer.spans());
  }
  return pdgf::Status::Ok();
}

}  // namespace e2ebench
