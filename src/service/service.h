// confanond's application layer: tenant-scoped anonymization over HTTP.
//
// The batch tools build a ServiceContext + Session per run and throw both
// away; the daemon is the long-running form of the same API. One
// AnonymizationService owns
//
//   * a shared process-lifetime core::ServiceContext (immutable engine
//     options and pass-list, hooks, thread budget), and
//   * a registry of per-tenant core::Sessions, created lazily on first
//     use and keyed by the X-Confanon-Tenant request header. A tenant's
//     salt is "<base salt>:<tenant>" — the same convention
//     `confanon_tool --network-dir` applies to subdirectory names, so a
//     daemon tenant and a CLI run over the same files produce
//     byte-identical output (tested).
//
// Routes (registered on the shared obs::ExpositionServer, satellite 2 —
// the same listener serves /metrics and /healthz):
//
//   POST /v1/anonymize   one config per request; body is the raw config
//                        text, X-Confanon-Tenant selects the session,
//                        X-Confanon-Name (optional) names the file for
//                        dialect detection + reporting. The anonymized
//                        config streams back chunked (Transfer-Encoding:
//                        chunked) with X-Confanon-Dialect echoed.
//   GET  /v1/sessions    JSON array of live sessions (tenant, request
//                        count, cumulative report counters).
//   POST /v1/passlist    installs a per-tenant extra pass-list (body is
//                        one token per line, '#' comments and blanks
//                        skipped). The combined policy — context baseline
//                        plus the uploaded extras — is statically
//                        verified first (src/verify, docs/VERIFY.md);
//                        a dirty verdict is rejected with 422 and the
//                        most severe finding rendered in the body, so a
//                        provably leaky tenant list never reaches a
//                        session. 409 once the tenant has served
//                        requests (mid-stream pass-list changes would
//                        break referential integrity).
//
// Determinism contract: requests within one tenant are serialized on a
// per-tenant mutex (the IP trie's mapping depends on insertion history),
// and every request preloads its own file's addresses (session-form
// CorpusPipeline) — so a tenant's response stream is byte-for-byte what a
// sequential standalone engine fed the same files in the same order
// emits, and the FIRST request on a fresh tenant matches a fresh CLI run
// exactly. Different tenants share nothing and run fully concurrently.
//
// Admission control lives one layer down in obs::ExpositionServer's
// bounded pending queue (the daemon sets overload_status=429); this layer
// only counts what it actually served. All service.* metrics land in the
// context's hooks().metrics registry and are documented in
// docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/session.h"
#include "obs/exposition.h"

namespace confanon::service {

/// Limits for the daemon's application layer (transport limits — body
/// size, queue depth — live in obs::ExpositionServer::Options).
struct AnonymizationServiceOptions {
  /// Hard cap on live tenant sessions; further new tenants get 429.
  /// Sessions are never evicted (a tenant's mappings must stay stable for
  /// the daemon's lifetime), so this bounds daemon memory.
  std::size_t max_sessions = 256;
  /// Longest accepted X-Confanon-Tenant value.
  std::size_t max_tenant_length = 128;
};

class AnonymizationService {
 public:
  /// `context` must outlive the service and have both dialect factories
  /// registered (i.e. come from pipeline::MakeServiceContext).
  AnonymizationService(std::shared_ptr<const core::ServiceContext> context,
                       AnonymizationServiceOptions options = {});

  AnonymizationService(const AnonymizationService&) = delete;
  AnonymizationService& operator=(const AnonymizationService&) = delete;

  /// Registers POST /v1/anonymize and GET /v1/sessions on `server`. Call
  /// before server.Start().
  void RegisterRoutes(obs::ExpositionServer& server);

  /// Route bodies (public so tests can drive them without a socket).
  void HandleAnonymize(const obs::HttpRequest& request,
                       obs::HttpResponseWriter& response);
  void HandleSessions(const obs::HttpRequest& request,
                      obs::HttpResponseWriter& response);
  void HandlePassList(const obs::HttpRequest& request,
                      obs::HttpResponseWriter& response);

  /// The session serving `tenant`, or null if it does not exist yet.
  std::shared_ptr<core::Session> FindSession(std::string_view tenant) const;
  std::size_t session_count() const;
  const std::shared_ptr<const core::ServiceContext>& context() const {
    return context_;
  }

  /// Header and default-tenant conventions, shared with tests/docs.
  static constexpr std::string_view kTenantHeader = "x-confanon-tenant";
  static constexpr std::string_view kNameHeader = "x-confanon-name";
  static constexpr std::string_view kDefaultTenant = "default";

 private:
  /// One tenant's long-lived session plus the mutex serializing its
  /// requests (determinism contract above). Entries live until shutdown.
  struct Tenant {
    std::string name;
    std::shared_ptr<core::Session> session;
    std::mutex mutex;
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
  };

  /// Returns the tenant entry, creating it (and its salted session) on
  /// first use; null when max_sessions would be exceeded.
  std::shared_ptr<Tenant> TenantFor(std::string_view name);

  /// True for names safe to use as a salt suffix and echo into headers:
  /// 1..max_tenant_length chars of [A-Za-z0-9._-].
  bool ValidTenantName(std::string_view name) const;

  std::shared_ptr<const core::ServiceContext> context_;
  AnonymizationServiceOptions options_;

  mutable std::mutex tenants_mutex_;
  std::map<std::string, std::shared_ptr<Tenant>, std::less<>> tenants_;

  std::atomic<std::uint64_t> request_seq_{0};
};

}  // namespace confanon::service
