#include "core/search_stats.h"

#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace disc {

void SearchStats::MergeFrom(const SearchStats& other) {
  for (const SearchStatsField& field : kSearchStatsWorkFields) {
    this->*field.member += other.*field.member;
  }
  wall_nanos += other.wall_nanos;
  if (other.start_ns != 0 &&
      (start_ns == 0 || other.start_ns < start_ns)) {
    start_ns = other.start_ns;
  }
}

bool SearchStats::SameWork(const SearchStats& other) const {
  for (const SearchStatsField& field : kSearchStatsWorkFields) {
    if (this->*field.member != other.*field.member) return false;
  }
  return true;
}

void SearchStats::AppendJson(JsonWriter* json) const {
  for (const SearchStatsField& field : kSearchStatsWorkFields) {
    json->Key(field.name).Uint(this->*field.member);
  }
  json->Key("wall_nanos").Uint(wall_nanos);
}

void SearchStats::AttachTo(TraceSpan* span) const {
  for (const SearchStatsField& field : kSearchStatsWorkFields) {
    span->Int(field.name, this->*field.member);
  }
}

void SearchStats::FlushTo(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  for (const SearchStatsField& field : kSearchStatsWorkFields) {
    const std::uint64_t value = this->*field.member;
    if (value == 0) continue;
    Counter* counter = registry->GetCounter(
        std::string("disc_save_") + field.name + "_total");
    if (counter != nullptr) counter->Add(value);
  }
}

}  // namespace disc
