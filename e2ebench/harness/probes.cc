#include <algorithm>
#include <string>

#include "core/cursor.h"
#include "core/output/formatter.h"
#include "harness/bench.h"

namespace e2ebench {
namespace {

// The probes read a fixed window of every table at a fixed scale factor,
// so their numbers compare across workloads and seeds.
constexpr const char* kProbeScaleFactor = "1";
constexpr uint64_t kProbeWindowRows = 16384;
// Tables smaller than the window repeat their pass up to this many rows.
constexpr uint64_t kProbeMinRowsPerRound = 4096;
constexpr int kProbeRounds = 3;
constexpr int kProbeSessionCreates = 15;

}  // namespace

void RunLayerProbes(const Settings& settings, Tracer* tracer, Result* result) {
  const pdgf::SchemaDef schema = SeededTpch(settings.seed);
  std::unique_ptr<pdgf::GenerationSession> session;
  for (int i = 0; i < kProbeSessionCreates; ++i) {
    const int64_t start = NowNs();
    Tracer::Scope span(tracer, "core.session.create");
    auto created = OpenSession(schema, kProbeScaleFactor);
    const int64_t end = NowNs();
    if (!created.ok()) {
      result->Check("probe.session", false, created.status().ToString());
      return;
    }
    session = std::move(*created);
    result->Add("probe.session_create_ms", (end - start) / 1e6);
  }

  pdgf::CsvFormatter formatter;
  pdgf::RowRangeCursor cursor;
  std::string buffer;
  for (size_t t = 0; t < schema.tables.size(); ++t) {
    const int table = static_cast<int>(t);
    const std::string& name = schema.tables[t].name;
    const uint64_t window =
        std::min<uint64_t>(session->TableRows(table), kProbeWindowRows);
    const uint64_t rows_per_round = std::max(window, kProbeMinRowsPerRound);
    for (int round = 0; round < kProbeRounds; ++round) {
      int64_t cursor_ns = 0;
      int64_t format_ns = 0;
      uint64_t rows = 0;
      while (rows < rows_per_round) {
        cursor.Reset(session.get(), table, 0, window);
        while (true) {
          int64_t start = NowNs();
          bool more;
          {
            Tracer::Scope span(tracer, "core.cursor.next");
            more = cursor.Next();
          }
          int64_t middle = NowNs();
          cursor_ns += middle - start;
          if (!more) break;
          buffer.clear();
          {
            Tracer::Scope span(tracer, "core.output.append_batch");
            formatter.AppendBatch(schema.tables[t], cursor.batch(), &buffer);
          }
          format_ns += NowNs() - middle;
          rows += cursor.batch().row_count();
        }
      }
      result->Add("probe.cursor_ns_per_row." + name,
                  static_cast<double>(cursor_ns) / static_cast<double>(rows));
      result->Add("probe.format_ns_per_row." + name,
                  static_cast<double>(format_ns) / static_cast<double>(rows));
    }
  }
}

}  // namespace e2ebench
