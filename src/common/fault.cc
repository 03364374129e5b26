#include "common/fault.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/stringutil.h"

namespace disc {
namespace {

std::atomic<FaultInjector*> g_fault_injector{nullptr};

bool TriggerMatches(const FaultSpec& spec, std::uint64_t h) {
  if (!spec.schedule.empty()) {
    return std::binary_search(spec.schedule.begin(), spec.schedule.end(), h);
  }
  if (h < spec.nth) return false;
  if (spec.every == 0) return h == spec.nth;
  return (h - spec.nth) % spec.every == 0;
}

bool ParseUint64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool ParseKindName(std::string_view s, FaultKind* out) {
  if (s == "error") {
    *out = FaultKind::kError;
  } else if (s == "latency") {
    *out = FaultKind::kLatency;
  } else if (s == "cancel") {
    *out = FaultKind::kCancel;
  } else if (s == "alloc") {
    *out = FaultKind::kAllocFail;
  } else if (s == "kill") {
    *out = FaultKind::kKill;
  } else {
    return false;
  }
  return true;
}

bool ParseCodeName(std::string_view s, StatusCode* out) {
  if (s == "invalid_argument") {
    *out = StatusCode::kInvalidArgument;
  } else if (s == "not_found") {
    *out = StatusCode::kNotFound;
  } else if (s == "failed_precondition") {
    *out = StatusCode::kFailedPrecondition;
  } else if (s == "internal") {
    *out = StatusCode::kInternal;
  } else if (s == "io_error") {
    *out = StatusCode::kIoError;
  } else if (s == "deadline_exceeded") {
    *out = StatusCode::kDeadlineExceeded;
  } else if (s == "cancelled") {
    *out = StatusCode::kCancelled;
  } else if (s == "resource_exhausted") {
    *out = StatusCode::kResourceExhausted;
  } else {
    return false;
  }
  return true;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kError:
      return "error";
    case FaultKind::kLatency:
      return "latency";
    case FaultKind::kCancel:
      return "cancel";
    case FaultKind::kAllocFail:
      return "alloc";
    case FaultKind::kKill:
      return "kill";
  }
  return "unknown";
}

Result<std::vector<FaultSpec>> ParseFaultSpecs(std::string_view text) {
  std::vector<FaultSpec> specs;
  for (const std::string& piece : Split(text, ';')) {
    const std::string trimmed = Trim(piece);
    if (trimmed.empty()) continue;
    const std::vector<std::string> parts = Split(trimmed, ':');
    if (parts.size() < 2 || parts.size() > 3) {
      return Status::InvalidArgument(StrFormat(
          "fault spec '%s' must be site:kind[:key=value,...]",
          trimmed.c_str()));
    }
    FaultSpec spec;
    spec.site = Trim(parts[0]);
    if (spec.site.empty()) {
      return Status::InvalidArgument(
          StrFormat("fault spec '%s' has an empty site", trimmed.c_str()));
    }
    if (!ParseKindName(Trim(parts[1]), &spec.kind)) {
      return Status::InvalidArgument(StrFormat(
          "fault spec '%s': unknown kind '%s' (expected error, latency, "
          "cancel, alloc, or kill)",
          trimmed.c_str(), Trim(parts[1]).c_str()));
    }
    if (parts.size() == 3) {
      for (const std::string& kv : Split(parts[2], ',')) {
        const std::string entry = Trim(kv);
        if (entry.empty()) continue;
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos) {
          return Status::InvalidArgument(StrFormat(
              "fault spec '%s': option '%s' is not key=value",
              trimmed.c_str(), entry.c_str()));
        }
        const std::string key = Trim(entry.substr(0, eq));
        const std::string value = Trim(entry.substr(eq + 1));
        bool ok = true;
        if (key == "nth") {
          ok = ParseUint64(value, &spec.nth);
        } else if (key == "every") {
          ok = ParseUint64(value, &spec.every);
        } else if (key == "max") {
          ok = ParseUint64(value, &spec.max_fires);
        } else if (key == "ms") {
          std::uint64_t ms = 0;
          ok = ParseUint64(value, &ms) && ms <= 60'000;
          spec.latency_ms = static_cast<std::uint32_t>(ms);
        } else if (key == "code") {
          ok = ParseCodeName(value, &spec.code);
        } else if (key == "at") {
          for (const std::string& idx : Split(value, '+')) {
            std::uint64_t v = 0;
            if (!ParseUint64(Trim(idx), &v)) {
              ok = false;
              break;
            }
            spec.schedule.push_back(v);
          }
        } else {
          return Status::InvalidArgument(StrFormat(
              "fault spec '%s': unknown key '%s'", trimmed.c_str(),
              key.c_str()));
        }
        if (!ok) {
          return Status::InvalidArgument(StrFormat(
              "fault spec '%s': bad value '%s' for key '%s'", trimmed.c_str(),
              value.c_str(), key.c_str()));
        }
      }
    }
    std::sort(spec.schedule.begin(), spec.schedule.end());
    specs.push_back(std::move(spec));
  }
  return specs;
}

FaultInjector::Site::Site(FaultInjector* owner, std::string name)
    : owner_(owner), name_(std::move(name)) {}

Status FaultInjector::Site::Hit() {
  const std::uint64_t h = hits_.fetch_add(1, std::memory_order_relaxed);
  for (const std::unique_ptr<Rule>& rule : rules_) {
    const FaultSpec& spec = rule->spec;
    if (!TriggerMatches(spec, h)) continue;
    // Claim one of the spec's allowed fires; the fetch_add makes the
    // max_fires cap exact even when hits race.
    if (rule->fires.fetch_add(1, std::memory_order_relaxed) >=
        spec.max_fires) {
      continue;
    }
    fires_.fetch_add(1, std::memory_order_relaxed);
    owner_->total_fires_.fetch_add(1, std::memory_order_relaxed);
    if (MetricsRegistry* metrics = GlobalMetrics()) {
      metrics
          ->GetCounter("disc_fault_injected_total",
                       "Faults fired by the attached FaultInjector.")
          ->Add(1);
    }
    switch (spec.kind) {
      case FaultKind::kLatency:
        std::this_thread::sleep_for(std::chrono::milliseconds(spec.latency_ms));
        return Status::OK();
      case FaultKind::kCancel:
        owner_->cancel_.RequestCancel();
        for (CancellationSource& mirror : owner_->cancel_mirrors_) {
          mirror.RequestCancel();
        }
        return Status::OK();
      case FaultKind::kError:
        return Status(spec.code,
                      StrFormat("injected fault at %s (hit %llu)",
                                name_.c_str(),
                                static_cast<unsigned long long>(h)));
      case FaultKind::kAllocFail:
        return Status::ResourceExhausted(
            StrFormat("injected allocation failure at %s (hit %llu)",
                      name_.c_str(), static_cast<unsigned long long>(h)));
      case FaultKind::kKill:
        throw FaultInjectedError(
            StrFormat("injected crash at %s (hit %llu)", name_.c_str(),
                      static_cast<unsigned long long>(h)));
    }
  }
  return Status::OK();
}

void FaultInjector::Add(FaultSpec spec) {
  std::sort(spec.schedule.begin(), spec.schedule.end());
  Site* s = site(spec.site);
  auto rule = std::make_unique<Site::Rule>();
  rule->spec = std::move(spec);
  s->rules_.push_back(std::move(rule));
}

Status FaultInjector::AddFromString(std::string_view text) {
  Result<std::vector<FaultSpec>> parsed = ParseFaultSpecs(text);
  if (!parsed.ok()) return parsed.status();
  for (const FaultSpec& spec : parsed.value()) Add(spec);
  return Status::OK();
}

FaultInjector::Site* FaultInjector::site(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Site>& s : sites_) {
    if (s->name_ == name) return s.get();
  }
  sites_.push_back(
      std::unique_ptr<Site>(new Site(this, std::string(name))));
  return sites_.back().get();
}

std::uint64_t FaultInjector::fires(std::string_view name) {
  return site(name)->fires();
}

std::uint64_t FaultInjector::hit_count(std::string_view name) {
  return site(name)->hits();
}

FaultInjector* GlobalFaultInjector() {
  return g_fault_injector.load(std::memory_order_acquire);
}

void AttachGlobalFaultInjector(FaultInjector* injector) {
  g_fault_injector.store(injector, std::memory_order_release);
}

FaultInjector::Site* FaultSiteFor(const char* name) {
  FaultInjector* injector = GlobalFaultInjector();
  return injector == nullptr ? nullptr : injector->site(name);
}

}  // namespace disc
