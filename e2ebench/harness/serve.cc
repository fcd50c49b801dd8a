// serve_onthefly: an in-process serve daemon on loopback, driven as a
// closed loop by kClients client connections issuing seeded `range`
// windows and unpaced `stream` snapshots over TPC-H SF 100. The daemon's
// sockets keep Nagle's algorithm on, so the last small frame of a reply
// waits for the client's delayed ACK (about 40 ms): that stall, not
// admission, framing or cursor work, sets most request latency. The
// time to the first payload frame is measured apart (ttfb).

#include <charconv>
#include <iterator>
#include <system_error>
#include <thread>

#include "core/output/formatter.h"
#include "core/stream.h"
#include "harness/bench.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/hash.h"
#include "workloads/tpch.h"

namespace e2ebench {
namespace {

constexpr const char* kScaleFactor = "100";
// Closed-loop client connections.
constexpr int kClients = 2;
// The timed phase is split into this many segments, each on a freshly
// set-up daemon, so set-up is sampled across the run.
constexpr int kSegments = 10;
constexpr const char* kTables[] = {"lineitem", "orders", "customer"};
constexpr uint64_t kRangeRows[] = {100, 1000, 10000};
constexpr uint64_t kStreamEvents[] = {100, 1000};
// One request in kStreamShare is a `stream` op; the rest are `range` ops.
constexpr uint64_t kStreamShare = 5;
// Every kSampleEvery-th request of a client is re-rendered locally after
// the timed phase and compared byte for byte.
constexpr uint64_t kSampleEvery = 16;

struct Request {
  bool stream = false;
  int table = 0;  // index into kTables
  uint64_t first_row = 0;
  uint64_t rows = 0;  // window length, or events for a stream

  std::string Line() const {
    std::string line = std::string("{\"op\":\"") +
                       (stream ? "stream" : "range") +
                       "\",\"model\":\"tpch\",\"scale_factor\":" +
                       kScaleFactor + ",\"table\":\"" + kTables[table] + "\"";
    if (stream) {
      line += ",\"snapshot\":true,\"events\":" + std::to_string(rows);
    } else {
      line += ",\"first_row\":" + std::to_string(first_row) +
              ",\"row_count\":" + std::to_string(rows);
    }
    return line + "}";
  }
};

struct Reply {
  bool ok = false;
  std::string error;
  uint64_t rows = 0;
  uint64_t wire_bytes = 0;
  uint64_t payload_bytes = 0;
  int64_t ttfb_ns = 0;
  int64_t total_ns = 0;
  pdgf::Digest128 payload_hash;
};

struct Sample {
  Request request;
  Reply reply;
};

bool ParseU64(const std::string& text, uint64_t* out) {
  const char* end = text.data() + text.size();
  auto [ptr, error] = std::from_chars(text.data(), end, *out);
  return error == std::errc() && ptr == end && !text.empty();
}

// Sends one request and consumes its stream, timing the first data frame
// (admission, session lookup and the first batch) and the whole reply.
Reply Exchange(serve::ServeClient* client, const Request& request,
               Tracer* tracer, uint64_t op) {
  Reply reply;
  const int64_t start = NowNs();
  Tracer::Scope span(tracer, "serve.request", op);
  auto fail = [&](const std::string& error) {
    reply.error = error;
    reply.total_ns = NowNs() - start;
    return reply;
  };
  {
    Tracer::Scope send(tracer, "serve.send", op);
    pdgf::Status sent = client->SendLine(request.Line());
    if (!sent.ok()) return fail(sent.ToString());
  }
  std::string line;
  {
    Tracer::Scope wait(tracer, "serve.first_byte", op);
    auto header = client->ReadLine();
    if (!header.ok()) return fail(header.status().ToString());
    reply.wire_bytes += header->size() + 1;
    if (header->find("\"streaming\"") == std::string::npos) {
      return fail(*header);
    }
    auto first = client->ReadLine();
    if (!first.ok()) return fail(first.status().ToString());
    line = std::move(*first);
  }
  reply.ttfb_ns = NowNs() - start;
  Tracer::Scope transfer(tracer, "serve.transfer", op);
  pdgf::ByteStreamHash hash;
  while (true) {
    reply.wire_bytes += line.size() + 1;
    auto fields = serve::ParseFlatJsonObject(line);
    if (!fields.ok()) return fail(fields.status().ToString());
    if (fields->count("table") != 0) {
      uint64_t bytes = 0;
      if (!ParseU64((*fields)["bytes"], &bytes)) return fail(line);
      auto payload = client->ReadBytes(static_cast<size_t>(bytes));
      if (!payload.ok()) return fail(payload.status().ToString());
      hash.Update(*payload);
      reply.wire_bytes += bytes;
      reply.payload_bytes += bytes;
    } else if ((*fields)["status"] == "ok") {
      if (!ParseU64((*fields)["rows"], &reply.rows)) return fail(line);
      break;
    } else {
      return fail(line);
    }
    auto next = client->ReadLine();
    if (!next.ok()) return fail(next.status().ToString());
    line = std::move(*next);
  }
  reply.total_ns = NowNs() - start;
  reply.payload_hash = hash.Finish();
  reply.ok = reply.rows == request.rows;
  if (!reply.ok) {
    reply.error = "rows " + std::to_string(reply.rows) + " != requested " +
                  std::to_string(request.rows);
  }
  return reply;
}

// One client connection's state across segments, merged after the run.
struct ClientLog {
  ClientLog(const Settings& settings, uint64_t index)
      : index(index),
        rng(Rng(settings.seed).Next() ^ (0x5e77e000 + index)),
        tracer(index + 1) {}

  uint64_t index;
  Rng rng;
  Tracer tracer;
  uint64_t next_op = 0;
  std::vector<double> op_ms, ttfb_ms, transfer_ms, traced_op_ms;
  std::vector<Sample> samples;
  uint64_t attempted = 0, failed = 0, rows = 0, wire_bytes = 0,
           payload_bytes = 0;
  std::string first_error;
};

// Closed loop: the next request goes out when the previous reply ended.
void RunClient(serve::ServeClient* client,
               const std::vector<uint64_t>& table_rows,
               const Settings& settings, int64_t deadline, ClientLog* log) {
  while (NowNs() < deadline) {
    const uint64_t k = log->next_op++;
    Request request;
    request.stream = log->rng.Below(kStreamShare) == 0;
    request.table = static_cast<int>(log->rng.Below(std::size(kTables)));
    if (request.stream) {
      request.rows = kStreamEvents[log->rng.Below(std::size(kStreamEvents))];
    } else {
      request.rows = kRangeRows[log->rng.Below(std::size(kRangeRows))];
      request.first_row =
          log->rng.Below(table_rows[static_cast<size_t>(request.table)] -
                         request.rows + 1);
    }
    const bool traced = settings.trace && k % 2 == 1;
    log->tracer.enabled = traced;
    Reply reply =
        Exchange(client, request, &log->tracer, (log->index << 32) | k);
    ++log->attempted;
    if (!reply.ok) {
      ++log->failed;
      if (log->first_error.empty()) log->first_error = reply.error;
      // An in-band rejection leaves the connection usable; anything else
      // leaves the stream in an unknown state.
      if (reply.error.find("ResourceExhausted") == std::string::npos) break;
      continue;
    }
    const double total_ms = reply.total_ns / 1e6;
    if (traced) {
      log->traced_op_ms.push_back(total_ms);
    } else {
      log->op_ms.push_back(total_ms);
      log->ttfb_ms.push_back(reply.ttfb_ns / 1e6);
      log->transfer_ms.push_back((reply.total_ns - reply.ttfb_ns) / 1e6);
    }
    log->rows += reply.rows;
    log->wire_bytes += reply.wire_bytes;
    log->payload_bytes += reply.payload_bytes;
    if (k % kSampleEvery == 0) log->samples.push_back({request, reply});
  }
}

// Renders a sampled request locally (cursor + CSV formatter, or the CDC
// stream generator) and compares it with what the daemon shipped.
bool VerifySample(const pdgf::GenerationSession& session,
                  const Sample& sample, double* render_ms) {
  const int table =
      session.schema().FindTableIndex(kTables[sample.request.table]);
  const int64_t start = NowNs();
  Rendered expected;
  if (sample.request.stream) {
    const pdgf::CsvFormatter formatter;
    pdgf::UpdateStreamOptions options;
    options.snapshot = true;
    pdgf::UpdateStreamGenerator generator(&session, table, &formatter,
                                          options);
    std::string events;
    generator.NextEvents(&events, sample.request.rows);
    pdgf::ByteStreamHash hash;
    hash.Update(events);
    expected.bytes = events.size();
    expected.hash = hash.Finish();
  } else {
    expected = RenderRows(session, table, sample.request.first_row,
                          sample.request.first_row + sample.request.rows);
  }
  *render_ms = (NowNs() - start) / 1e6;
  return expected.bytes == sample.reply.payload_bytes &&
         expected.hash == sample.reply.payload_hash;
}

// ServeCounters of one daemon after its segment: every accepted job
// ended as completed, failed or cancelled.
void CheckCounters(serve::ServeClient* client, Result* result,
                   std::string* first_error) {
  auto metrics = client->Request(R"({"op":"metrics"})");
  if (!metrics.ok()) {
    ++result->failed;
    if (first_error->empty()) *first_error = metrics.status().ToString();
    return;
  }
  std::map<std::string, double> counters;
  for (const char* key :
       {"jobs_accepted", "jobs_completed", "jobs_failed", "jobs_cancelled",
        "jobs_rejected", "requests_malformed"}) {
    auto value = serve::ExtractJsonNumber(*metrics, key);
    counters[key] = value.ok() ? *value : -1;
    result->scalars[std::string("counter.") + key] += counters[key];
  }
  if (counters["jobs_accepted"] !=
      counters["jobs_completed"] + counters["jobs_failed"] +
          counters["jobs_cancelled"]) {
    ++result->failed;
    if (first_error->empty()) *first_error = "unbalanced: " + *metrics;
  }
}

// A daemon with its client connections, warmed: what each segment sets up.
struct Daemon {
  std::unique_ptr<serve::Server> server;
  std::vector<serve::ServeClient> clients;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    clients.clear();
    if (server != nullptr) {
      server->RequestShutdown();
      server->Wait();
    }
  }
};

pdgf::Status SetUpDaemon(Daemon* daemon) {
  serve::ServeOptions options;
  options.port = 0;
  daemon->server = std::make_unique<serve::Server>(options);
  pdgf::Status started = daemon->server->Start();
  if (!started.ok()) {
    daemon->server.reset();  // never started: nothing to shut down
    return started;
  }
  for (int c = 0; c < kClients; ++c) {
    PDGF_ASSIGN_OR_RETURN(auto client,
                          serve::ServeClient::Connect(daemon->server->port()));
    daemon->clients.push_back(std::move(client));
  }
  // The first request builds and caches the (tpch, 100) session.
  const Request warm{false, 0, 0, 1};
  Reply reply = Exchange(&daemon->clients[0], warm, nullptr, 0);
  if (!reply.ok) return pdgf::InternalError("warm-up: " + reply.error);
  return pdgf::Status::Ok();
}

}  // namespace

pdgf::Status RunServe(const Settings& settings, Result* result) {
  const pdgf::SchemaDef schema = workloads::BuildTpchSchema();
  PDGF_ASSIGN_OR_RETURN(auto session, OpenSession(schema, kScaleFactor));
  std::vector<uint64_t> table_rows;
  for (const char* name : kTables) {
    table_rows.push_back(session->TableRows(schema.FindTableIndex(name)));
  }
  std::vector<ClientLog> logs;
  for (int c = 0; c < kClients; ++c) logs.emplace_back(settings, c);

  std::string first_error;
  double timed_s = 0;
  const double segment_s = settings.seconds / kSegments;
  for (int segment = 0; segment < kSegments; ++segment) {
    Daemon daemon;
    const int64_t setup_start = NowNs();
    PDGF_RETURN_IF_ERROR(SetUpDaemon(&daemon));
    result->Add("setup_s", (NowNs() - setup_start) / 1e9);
    ResetPeakRss();
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(segment_s * 1e9);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < daemon.clients.size(); ++c) {
      threads.emplace_back(RunClient, &daemon.clients[c],
                           std::cref(table_rows), std::cref(settings),
                           deadline, &logs[c]);
    }
    for (std::thread& thread : threads) thread.join();
    timed_s += (NowNs() - start) / 1e9;
    result->Add("peak_rss_mb", PeakRssMb());
    CheckCounters(&daemon.clients[0], result, &first_error);
  }
  result->scalars["elapsed_s"] = timed_s;
  result->scalars["clients"] = kClients;

  uint64_t rows = 0, wire_bytes = 0, payload_bytes = 0;
  for (ClientLog& log : logs) {
    result->attempted += log.attempted;
    result->failed += log.failed;
    rows += log.rows;
    wire_bytes += log.wire_bytes;
    payload_bytes += log.payload_bytes;
    if (first_error.empty()) first_error = log.first_error;
    auto append = [&](const char* name, const std::vector<double>& values) {
      auto& series = result->series[name];
      series.insert(series.end(), values.begin(), values.end());
    };
    append("op_ms", log.op_ms);
    append("ttfb_ms", log.ttfb_ms);
    append("transfer_ms", log.transfer_ms);
    append("traced.op_ms", log.traced_op_ms);
    for (const Sample& sample : log.samples) {
      double render_ms = 0;
      if (!VerifySample(*session, sample, &render_ms)) {
        ++result->failed;
        if (first_error.empty()) {
          first_error = "reply differs from local render: " +
                        sample.request.Line();
        }
      }
      if (!sample.request.stream) {
        result->Add("local_render_ms", render_ms);
        result->Add("sample_op_ms", sample.reply.total_ns / 1e6);
      }
    }
    result->spans.insert(result->spans.end(), log.tracer.spans().begin(),
                         log.tracer.spans().end());
  }
  result->Check("serve.replies_samples_counters", result->failed == 0,
                first_error);
  result->scalars["rows"] = static_cast<double>(rows);
  result->scalars["wire_bytes"] = static_cast<double>(wire_bytes);
  result->scalars["payload_bytes"] = static_cast<double>(payload_bytes);

  if (settings.trace) {
    Tracer tracer;
    tracer.enabled = true;
    RunLayerProbes(settings, &tracer, result);
    result->spans.insert(result->spans.end(), tracer.spans().begin(),
                         tracer.spans().end());
  }
  return pdgf::Status::Ok();
}

}  // namespace e2ebench
