#include "core/session.h"

#include <stdexcept>
#include <thread>
#include <utility>

#include "util/strings.h"

namespace confanon::core {

ConfigDialect DetectDialect(const config::ConfigFile& file) {
  for (const std::string_view line : file.lines()) {
    const std::string_view trimmed = util::Trim(line);
    if (trimmed.empty()) continue;
    if (trimmed.back() == '{' || trimmed == "}") return ConfigDialect::kJunos;
  }
  return ConfigDialect::kIos;
}

ConfigDialect ResolveDialect(ConfigDialect requested,
                             const config::ConfigFile& file) {
  return requested == ConfigDialect::kAuto ? DetectDialect(file) : requested;
}

ServiceContext::ServiceContext(ServiceOptions options)
    : options_(std::move(options)) {}

int ServiceContext::ResolveThreads(std::size_t items) const {
  int threads = options_.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  if (items > 0 && static_cast<std::size_t>(threads) > items) {
    threads = static_cast<int>(items);
  }
  return threads < 1 ? 1 : threads;
}

AnonymizerOptions ServiceContext::EngineOptions(const Session& session) const {
  AnonymizerOptions engine_options = options_.base;
  engine_options.salt = session.salt();
  engine_options.extra_pass_list.Merge(session.extra_pass_list());
  return engine_options;
}

std::shared_ptr<Session> ServiceContext::CreateSession(
    std::string_view salt) const {
  const PolicyVerdict& verdict = policy_verdict_;
  if (verdict.verified) {
    if (verdict.errors > 0) {
      throw PolicyError(
          "policy verification failed with " +
              std::to_string(verdict.errors) + " error finding(s): " +
              verdict.first_finding,
          verdict);
    }
    if (verdict.warnings > 0 && !options_.allow_policy_warnings) {
      throw PolicyError(
          "policy verification produced " +
              std::to_string(verdict.warnings) +
              " warning(s) (pass --allow-policy-warnings to proceed): " +
              verdict.first_finding,
          verdict);
    }
  }
  return std::make_shared<Session>(*this, salt);
}

std::shared_ptr<Session> ServiceContext::CreateSession() const {
  return CreateSession(options_.base.salt);
}

Session::Session(const ServiceContext& context, std::string_view salt)
    : salt_(salt), state_(std::make_shared<NetworkState>(salt)) {
  (void)context;  // the pairing is the API; nothing is read today
}

void Session::SetExtraPassList(passlist::PassList extras) {
  if (requests() > 0) {
    throw std::logic_error(
        "SetExtraPassList after the session served requests would break "
        "referential integrity");
  }
  extras_ = std::move(extras);
}

void Session::MergeRequest(const AnonymizationReport& report,
                           const LeakRecord& leaks) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    report_.Merge(report);
    leak_record_.Merge(leaks);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
}

void Session::MergeDefense(const DefenseSummary& summary) {
  const std::lock_guard<std::mutex> lock(mutex_);
  defense_.target_k = summary.target_k;
  defense_.decoy_lines += summary.decoy_lines;
  defense_.overhead = summary.overhead;
  if (defense_.achieved_k == 0 ||
      summary.achieved_k < defense_.achieved_k) {
    defense_.achieved_k = summary.achieved_k;
  }
}

DefenseSummary Session::defense() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return defense_;
}

AnonymizationReport Session::report() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return report_;
}

LeakRecord Session::leak_record() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return leak_record_;
}

}  // namespace confanon::core
