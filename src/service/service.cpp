#include "service/service.h"

#include <chrono>
#include <exception>
#include <utility>
#include <vector>

#include "config/document.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "passlist/passlist.h"
#include "pipeline/pipeline.h"
#include "util/strings.h"
#include "verify/verify.h"

namespace confanon::service {

namespace {

/// Streaming flush threshold: lines accumulate into a buffer this large
/// before going out as one chunk, so a multi-megabyte config neither
/// buffers fully nor pays a syscall per line.
constexpr std::size_t kChunkBytes = 64 * 1024;

const char* DialectName(core::ConfigDialect dialect) {
  switch (dialect) {
    case core::ConfigDialect::kIos: return "ios";
    case core::ConfigDialect::kJunos: return "junos";
    case core::ConfigDialect::kAuto: break;
  }
  return "auto";
}

/// One token per line, blank lines and '#' comments skipped — the same
/// format confanon_audit --passlist accepts from disk.
passlist::PassList ParsePassListBody(std::string_view body) {
  passlist::PassList list;
  while (!body.empty()) {
    const std::size_t eol = body.find('\n');
    const std::string_view line = body.substr(0, eol);
    body = eol == std::string_view::npos ? std::string_view{}
                                         : body.substr(eol + 1);
    const auto token = util::Trim(line);
    if (token.empty() || token.front() == '#') continue;
    list.Add(token);
  }
  return list;
}

}  // namespace

AnonymizationService::AnonymizationService(
    std::shared_ptr<const core::ServiceContext> context,
    AnonymizationServiceOptions options)
    : context_(std::move(context)), options_(options) {}

void AnonymizationService::RegisterRoutes(obs::ExpositionServer& server) {
  server.AddRoute("POST", "/v1/anonymize",
                  [this](const obs::HttpRequest& request,
                         obs::HttpResponseWriter& response) {
                    HandleAnonymize(request, response);
                  });
  server.AddRoute("GET", "/v1/sessions",
                  [this](const obs::HttpRequest& request,
                         obs::HttpResponseWriter& response) {
                    HandleSessions(request, response);
                  });
  server.AddRoute("POST", "/v1/passlist",
                  [this](const obs::HttpRequest& request,
                         obs::HttpResponseWriter& response) {
                    HandlePassList(request, response);
                  });
}

bool AnonymizationService::ValidTenantName(std::string_view name) const {
  if (name.empty() || name.size() > options_.max_tenant_length) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::shared_ptr<AnonymizationService::Tenant> AnonymizationService::TenantFor(
    std::string_view name) {
  const std::lock_guard<std::mutex> lock(tenants_mutex_);
  if (const auto it = tenants_.find(name); it != tenants_.end()) {
    return it->second;
  }
  if (tenants_.size() >= options_.max_sessions) return nullptr;
  auto tenant = std::make_shared<Tenant>();
  tenant->name = std::string(name);
  // The per-tenant salt convention shared with `confanon_tool
  // --network-dir`: a directory named <tenant> under base salt S runs
  // with salt "S:<tenant>", so CLI and daemon mappings agree.
  tenant->session =
      context_->CreateSession(context_->options().base.salt + ":" +
                              tenant->name);
  tenants_.emplace(tenant->name, tenant);
  if (obs::MetricsRegistry* metrics = context_->hooks().metrics) {
    metrics->GaugeNamed("service.sessions")
        .Set(static_cast<std::int64_t>(tenants_.size()));
  }
  return tenant;
}

std::shared_ptr<core::Session> AnonymizationService::FindSession(
    std::string_view tenant) const {
  const std::lock_guard<std::mutex> lock(tenants_mutex_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second->session;
}

std::size_t AnonymizationService::session_count() const {
  const std::lock_guard<std::mutex> lock(tenants_mutex_);
  return tenants_.size();
}

void AnonymizationService::HandleAnonymize(const obs::HttpRequest& request,
                                           obs::HttpResponseWriter& response) {
  obs::MetricsRegistry* metrics = context_->hooks().metrics;
  const auto start = std::chrono::steady_clock::now();
  const auto fail = [&](int status, std::string_view message) {
    if (metrics != nullptr) {
      metrics->CounterNamed("service.request_errors").Add();
    }
    response.Send(status, "text/plain", message);
  };

  std::string_view tenant_name = request.Header(kTenantHeader);
  if (tenant_name.empty()) tenant_name = kDefaultTenant;
  if (!ValidTenantName(tenant_name)) {
    fail(400, "bad X-Confanon-Tenant (want 1..128 chars of [A-Za-z0-9._-])\n");
    return;
  }
  if (request.body.empty()) {
    fail(400, "empty request body (expected one config file)\n");
    return;
  }

  std::shared_ptr<Tenant> tenant;
  try {
    tenant = TenantFor(tenant_name);
  } catch (const core::PolicyError& error) {
    // The context's verified policy gates session creation (VERIFY.md).
    fail(422, std::string(error.what()) + "\n");
    return;
  }
  if (tenant == nullptr) {
    fail(429, "session limit reached\n");
    return;
  }

  std::string name(request.Header(kNameHeader));
  if (name.empty()) {
    name = "request-" +
           std::to_string(
               request_seq_.fetch_add(1, std::memory_order_relaxed) + 1) +
           ".cfg";
  }
  // Zero-copy ingest: the file's lines alias the request body directly
  // (non-owning backing — the request outlives the pipeline call below,
  // whose output owns its lines).
  config::ConfigFile file = config::ConfigFile::FromBacking(
      std::move(name), request.body,
      std::shared_ptr<const void>(std::shared_ptr<const void>(),
                                  request.body.data()));
  const core::ConfigDialect dialect =
      core::ResolveDialect(context_->options().dialect, file);

  // One request = one single-file corpus through the session-form
  // pipeline, under the tenant's mutex: the serialization that makes a
  // tenant's response stream equal the sequential-engine stream.
  std::vector<config::ConfigFile> output;
  {
    const std::lock_guard<std::mutex> lock(tenant->mutex);
    const obs::PhaseProfiler::ScopedPhase phase(
        context_->hooks().profiler, nullptr, "service.request");
    try {
      pipeline::CorpusPipeline pipeline(context_, tenant->session);
      output = pipeline.AnonymizeCorpus({std::move(file)});
      tenant->session->MergeRequest(pipeline.report(), pipeline.leak_record());
    } catch (const std::exception&) {
      fail(500, "anonymization failed\n");
      return;
    }
  }

  if (!response.BeginChunked(
          200, "text/plain; charset=utf-8",
          {{"X-Confanon-Tenant", std::string(tenant_name)},
           {"X-Confanon-Dialect", DialectName(dialect)}})) {
    return;  // peer went away; nothing to account
  }
  std::uint64_t bytes_out = 0;
  std::string chunk;
  chunk.reserve(kChunkBytes + 4096);
  for (const std::string_view line : output.front().lines()) {
    chunk += line;
    chunk += '\n';
    if (chunk.size() >= kChunkBytes) {
      bytes_out += chunk.size();
      if (!response.WriteChunk(chunk)) return;
      chunk.clear();
    }
  }
  bytes_out += chunk.size();
  if (!response.WriteChunk(chunk)) return;
  response.EndChunked();

  tenant->bytes_in.fetch_add(request.body.size(), std::memory_order_relaxed);
  tenant->bytes_out.fetch_add(bytes_out, std::memory_order_relaxed);
  if (metrics != nullptr) {
    metrics->CounterNamed("service.requests").Add();
    metrics->CounterNamed("service.bytes_in").Add(request.body.size());
    metrics->CounterNamed("service.bytes_out").Add(bytes_out);
    metrics->HistogramNamed("service.request_ns")
        .Record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
  }
}

void AnonymizationService::HandleSessions(const obs::HttpRequest& request,
                                          obs::HttpResponseWriter& response) {
  (void)request;
  // Copy the registry under the lock, render outside it.
  std::vector<std::shared_ptr<Tenant>> tenants;
  {
    const std::lock_guard<std::mutex> lock(tenants_mutex_);
    tenants.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) tenants.push_back(tenant);
  }

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("sessions").BeginArray();
  for (const std::shared_ptr<Tenant>& tenant : tenants) {
    const core::AnonymizationReport report = tenant->session->report();
    json.BeginObject();
    json.Key("tenant").Value(tenant->name);
    json.Key("requests").Value(tenant->session->requests());
    json.Key("bytes_in")
        .Value(tenant->bytes_in.load(std::memory_order_relaxed));
    json.Key("bytes_out")
        .Value(tenant->bytes_out.load(std::memory_order_relaxed));
    json.Key("lines").Value(report.total_lines);
    json.Key("words_hashed").Value(report.words_hashed);
    json.Key("addresses_mapped").Value(report.addresses_mapped);
    const core::DefenseSummary defense = tenant->session->defense();
    json.Key("defend_k").Value(static_cast<std::uint64_t>(defense.target_k));
    json.Key("achieved_k")
        .Value(static_cast<std::uint64_t>(defense.achieved_k));
    json.Key("decoy_lines").Value(defense.decoy_lines);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  response.Send(200, "application/json", json.str());
}

void AnonymizationService::HandlePassList(const obs::HttpRequest& request,
                                          obs::HttpResponseWriter& response) {
  obs::MetricsRegistry* metrics = context_->hooks().metrics;
  const auto fail = [&](int status, std::string_view message) {
    if (metrics != nullptr) {
      metrics->CounterNamed("service.request_errors").Add();
    }
    response.Send(status, "text/plain", message);
  };

  std::string_view tenant_name = request.Header(kTenantHeader);
  if (tenant_name.empty()) tenant_name = kDefaultTenant;
  if (!ValidTenantName(tenant_name)) {
    fail(400, "bad X-Confanon-Tenant (want 1..128 chars of [A-Za-z0-9._-])\n");
    return;
  }
  if (request.body.empty()) {
    fail(400, "empty request body (expected one token per line)\n");
    return;
  }

  passlist::PassList extras = ParsePassListBody(request.body);

  // Statically verify the combined policy — the context baseline plus
  // these extras — before any session sees a single token. A provably
  // leaky tenant list must be rejected here, not discovered in output.
  core::AnonymizerOptions combined = context_->options().base;
  combined.extra_pass_list.Merge(extras);
  const audit::AuditResult verification =
      verify::VerifyEngineOptions(combined);
  if (metrics != nullptr) {
    for (const auto& [name, value] : verification.stats) {
      metrics->CounterNamed(name).Add(value);
    }
  }
  const core::PolicyVerdict verdict = verify::VerdictOf(verification);
  const bool clean =
      verdict.errors == 0 &&
      (verdict.warnings == 0 || context_->options().allow_policy_warnings);
  if (!clean) {
    if (metrics != nullptr) {
      metrics->CounterNamed("service.passlist_rejected").Add();
    }
    fail(422, "pass-list failed policy verification: " +
                  verdict.first_finding + "\n");
    return;
  }

  std::shared_ptr<Tenant> tenant;
  try {
    tenant = TenantFor(tenant_name);
  } catch (const core::PolicyError& error) {
    fail(422, std::string(error.what()) + "\n");
    return;
  }
  if (tenant == nullptr) {
    fail(429, "session limit reached\n");
    return;
  }

  const std::size_t entries = extras.Entries().size();
  {
    const std::lock_guard<std::mutex> lock(tenant->mutex);
    try {
      tenant->session->SetExtraPassList(std::move(extras));
    } catch (const std::logic_error&) {
      fail(409,
           "tenant has already served requests; its pass-list is "
           "immutable for the session's lifetime\n");
      return;
    }
  }
  if (metrics != nullptr) {
    metrics->CounterNamed("service.passlist_installed").Add();
  }

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("tenant").Value(std::string(tenant_name));
  json.Key("entries").Value(static_cast<std::uint64_t>(entries));
  json.Key("verified").Value(true);
  json.Key("warnings").Value(static_cast<std::uint64_t>(verdict.warnings));
  json.Key("notes").Value(static_cast<std::uint64_t>(verdict.notes));
  json.EndObject();
  response.Send(200, "application/json", json.str());
}

}  // namespace confanon::service
