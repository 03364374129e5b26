#include "core/save_journal.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <utility>

#include "common/fault.h"
#include "common/json_writer.h"
#include "common/stringutil.h"

namespace disc {
namespace {

// ---------------------------------------------------------------------------
// Serialization. Doubles go through printf "%a" / strtod, which round-trips
// the exact bit pattern (including negative zero, subnormals and infinities)
// through text — the property the resume bit-identity guarantee rests on.

std::string HexDouble(double v) { return StrFormat("%a", v); }

bool ParseHexDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  const char* begin = s.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end != begin + s.size()) return false;
  *out = v;
  return true;
}

bool ParseTerminationName(const std::string& s, SaveTermination* out) {
  static constexpr SaveTermination kAll[] = {
      SaveTermination::kCompleted,   SaveTermination::kVisitBudget,
      SaveTermination::kQueryBudget, SaveTermination::kDeadline,
      SaveTermination::kCancelled,   SaveTermination::kInfeasible,
      SaveTermination::kFault,
  };
  for (SaveTermination t : kAll) {
    if (s == SaveTerminationName(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON parser — just enough for the journal's
// own output (objects, arrays, strings with standard escapes, numbers,
// booleans, null). Numbers keep their raw token so 64-bit counters parse
// exactly instead of through a double.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  // string payload, or the raw number token
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out)) return false;
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const std::size_t len = std::string_view(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->text);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->fields.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->items.push_back(std::move(value));
      SkipSpace();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char esc = s_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_ + i];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return false;
              }
            }
            pos_ += 4;
            // UTF-8 encode; the writer only emits \u for control chars but
            // accept the full BMP for robustness.
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return false;
        }
        continue;
      }
      *out += c;
      ++pos_;
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue* out) {
    out->kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->text = s_.substr(start, pos_ - start);
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// Typed field accessors; every getter fails loudly so a corrupt journal is
// rejected rather than half-read.

bool GetUint(const JsonValue& obj, const std::string& key,
             std::uint64_t* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return false;
  const char* begin = v->text.c_str();
  char* end = nullptr;
  *out = std::strtoull(begin, &end, 10);
  return end == begin + v->text.size();
}

bool GetBool(const JsonValue& obj, const std::string& key, bool* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kBool) return false;
  *out = v->boolean;
  return true;
}

bool GetHexDouble(const JsonValue& obj, const std::string& key, double* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) return false;
  return ParseHexDouble(v->text, out);
}

bool GetString(const JsonValue& obj, const std::string& key,
               std::string* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) return false;
  *out = v->text;
  return true;
}

std::string RenderEntry(std::uint64_t ordinal, const SaveResult& r) {
  JsonWriter json;
  json.BeginObject();
  json.Key("kind").String("entry");
  json.Key("ordinal").Uint(ordinal);
  json.Key("termination").String(SaveTerminationName(r.termination));
  json.Key("feasible").Bool(r.feasible);
  json.Key("cost").String(HexDouble(r.cost));
  json.Key("lower_bound").String(HexDouble(r.lower_bound));
  json.Key("kappa_exceeded").Bool(r.kappa_exceeded);
  json.Key("adjusted_attributes").Uint(r.adjusted_attributes.bits());
  json.Key("pruned_sets").Uint(r.stats.lb_prunes);
  json.Key("adjusted").BeginArray();
  for (const Value& v : r.adjusted) {
    json.BeginObject();
    if (v.is_numeric()) {
      json.Key("n").String(HexDouble(v.num()));
    } else {
      json.Key("s").String(v.str());
    }
    json.EndObject();
  }
  json.EndArray();
  json.Key("stats").BeginObject();
  for (const SearchStatsField& field : kSearchStatsWorkFields) {
    json.Key(field.name).Uint(r.stats.*field.member);
  }
  // The timing pair too: a resumed outlier reports the wall clock of the
  // run that computed it.
  json.Key("wall_nanos").Uint(r.stats.wall_nanos);
  json.Key("start_ns").Uint(r.stats.start_ns);
  json.EndObject();
  json.EndObject();
  return json.str();
}

bool ParseEntry(const JsonValue& obj, SaveJournalEntry* out) {
  SaveResult& r = out->result;
  std::string termination;
  if (!GetUint(obj, "ordinal", &out->ordinal) ||
      !GetString(obj, "termination", &termination) ||
      !ParseTerminationName(termination, &r.termination) ||
      !GetBool(obj, "feasible", &r.feasible) ||
      !GetHexDouble(obj, "cost", &r.cost) ||
      !GetHexDouble(obj, "lower_bound", &r.lower_bound) ||
      !GetBool(obj, "kappa_exceeded", &r.kappa_exceeded)) {
    return false;
  }
  // `pruned_sets` repeats stats.lb_prunes (read below). It stays in the
  // line format — written and required — so journals keep one shape.
  std::uint64_t bits = 0;
  std::uint64_t pruned = 0;
  if (!GetUint(obj, "adjusted_attributes", &bits) ||
      !GetUint(obj, "pruned_sets", &pruned)) {
    return false;
  }
  r.adjusted_attributes = AttributeSet(bits);
  const JsonValue* adjusted = obj.Find("adjusted");
  if (adjusted == nullptr || adjusted->kind != JsonValue::Kind::kArray) {
    return false;
  }
  r.adjusted = Tuple();
  for (const JsonValue& cell : adjusted->items) {
    if (cell.kind != JsonValue::Kind::kObject) return false;
    if (const JsonValue* num = cell.Find("n")) {
      double v = 0;
      if (num->kind != JsonValue::Kind::kString ||
          !ParseHexDouble(num->text, &v)) {
        return false;
      }
      r.adjusted.push_back(Value(v));
    } else if (const JsonValue* str = cell.Find("s")) {
      if (str->kind != JsonValue::Kind::kString) return false;
      r.adjusted.push_back(Value(str->text));
    } else {
      return false;
    }
  }
  const JsonValue* stats = obj.Find("stats");
  if (stats == nullptr || stats->kind != JsonValue::Kind::kObject) {
    return false;
  }
  for (const SearchStatsField& field : kSearchStatsWorkFields) {
    if (!GetUint(*stats, field.name, &(r.stats.*field.member))) return false;
  }
  if (!GetUint(*stats, "wall_nanos", &r.stats.wall_nanos) ||
      !GetUint(*stats, "start_ns", &r.stats.start_ns)) {
    return false;
  }
  return true;
}

std::string RenderHeader(const SaveJournalHeader& header) {
  JsonWriter json;
  json.BeginObject();
  json.Key("kind").String("header");
  json.Key("schema_version").Uint(header.schema_version);
  json.Key("n_outliers").Uint(header.n_outliers);
  json.Key("arity").Uint(header.arity);
  json.Key("epsilon").String(HexDouble(header.epsilon));
  json.Key("eta").Uint(header.eta);
  json.Key("kappa").Uint(header.kappa);
  json.EndObject();
  return json.str();
}

bool ParseHeader(const JsonValue& obj, SaveJournalHeader* out) {
  std::uint64_t version = 0;
  if (!GetUint(obj, "schema_version", &version) ||
      !GetUint(obj, "n_outliers", &out->n_outliers) ||
      !GetUint(obj, "arity", &out->arity) ||
      !GetHexDouble(obj, "epsilon", &out->epsilon) ||
      !GetUint(obj, "eta", &out->eta) || !GetUint(obj, "kappa", &out->kappa)) {
    return false;
  }
  out->schema_version = static_cast<std::uint32_t>(version);
  return true;
}

}  // namespace

Status SaveJournal::Matches(std::size_t n_outliers, std::size_t arity,
                            const DistanceConstraint& constraint,
                            std::size_t kappa) const {
  if (header.schema_version != 1) {
    return Status::FailedPrecondition(
        StrFormat("journal schema_version %u is not readable (expected 1)",
                  header.schema_version));
  }
  if (header.n_outliers != n_outliers || header.arity != arity) {
    return Status::FailedPrecondition(StrFormat(
        "journal describes a batch of %llu outliers × %llu attributes, "
        "resuming %zu × %zu",
        static_cast<unsigned long long>(header.n_outliers),
        static_cast<unsigned long long>(header.arity), n_outliers, arity));
  }
  if (header.epsilon != constraint.epsilon || header.eta != constraint.eta ||
      header.kappa != kappa) {
    return Status::FailedPrecondition(
        "journal was written under a different constraint (epsilon/eta/kappa "
        "mismatch); refusing to resume");
  }
  for (const SaveJournalEntry& entry : entries) {
    if (entry.ordinal >= n_outliers) {
      return Status::FailedPrecondition(StrFormat(
          "journal entry ordinal %llu out of range for %zu outliers",
          static_cast<unsigned long long>(entry.ordinal), n_outliers));
    }
    if (entry.result.termination != SaveTermination::kCompleted &&
        entry.result.termination != SaveTermination::kInfeasible) {
      return Status::FailedPrecondition(StrFormat(
          "journal entry %llu has non-definitive termination '%s'",
          static_cast<unsigned long long>(entry.ordinal),
          SaveTerminationName(entry.result.termination)));
    }
  }
  return Status::OK();
}

Result<SaveJournal> ReadSaveJournal(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound(
        StrFormat("cannot open journal '%s'", path.c_str()));
  }
  SaveJournal journal;
  std::map<std::uint64_t, SaveResult> by_ordinal;  // last occurrence wins
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    JsonValue value;
    if (!JsonParser(trimmed).Parse(&value) ||
        value.kind != JsonValue::Kind::kObject) {
      // A crash mid-append can tear the final line; only the last line may
      // be unparseable.
      if (in.peek() == std::char_traits<char>::eof()) break;
      return Status::IoError(StrFormat("journal '%s' line %zu is not JSON",
                                       path.c_str(), line_no));
    }
    std::string kind;
    if (!GetString(value, "kind", &kind)) {
      return Status::IoError(StrFormat("journal '%s' line %zu has no kind",
                                       path.c_str(), line_no));
    }
    if (kind == "header") {
      if (saw_header) {
        return Status::IoError(StrFormat(
            "journal '%s' line %zu: duplicate header", path.c_str(), line_no));
      }
      if (!ParseHeader(value, &journal.header)) {
        return Status::IoError(StrFormat("journal '%s' line %zu: bad header",
                                         path.c_str(), line_no));
      }
      saw_header = true;
      continue;
    }
    if (kind != "entry") {
      return Status::IoError(StrFormat("journal '%s' line %zu: unknown kind "
                                       "'%s'",
                                       path.c_str(), line_no, kind.c_str()));
    }
    if (!saw_header) {
      return Status::IoError(StrFormat(
          "journal '%s' line %zu: entry before header", path.c_str(),
          line_no));
    }
    SaveJournalEntry entry;
    if (!ParseEntry(value, &entry)) {
      return Status::IoError(StrFormat("journal '%s' line %zu: bad entry",
                                       path.c_str(), line_no));
    }
    by_ordinal[entry.ordinal] = std::move(entry.result);
  }
  if (!saw_header) {
    return Status::IoError(
        StrFormat("journal '%s' has no header line", path.c_str()));
  }
  journal.entries.reserve(by_ordinal.size());
  for (auto& [ordinal, result] : by_ordinal) {
    journal.entries.push_back(SaveJournalEntry{ordinal, std::move(result)});
  }
  return journal;
}

Status SaveJournalWriter::Open(const std::string& path,
                               const SaveJournalHeader& header) {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_.is_open()) out_.close();
  out_.open(path, std::ios::out | std::ios::trunc);
  if (!out_.is_open()) {
    return Status::IoError(
        StrFormat("cannot create journal '%s'", path.c_str()));
  }
  path_ = path;
  out_ << RenderHeader(header) << '\n';
  out_.flush();
  if (!out_.good()) {
    return Status::IoError(
        StrFormat("failed writing journal header to '%s'", path.c_str()));
  }
  return Status::OK();
}

Status SaveJournalWriter::OpenAppend(const std::string& path,
                                     const SaveJournalHeader& header) {
  {
    std::ifstream probe(path);
    if (!probe.is_open()) return Open(path, header);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (out_.is_open()) out_.close();
  out_.open(path, std::ios::out | std::ios::app);
  if (!out_.is_open()) {
    return Status::IoError(
        StrFormat("cannot append to journal '%s'", path.c_str()));
  }
  path_ = path;
  return Status::OK();
}

Status SaveJournalWriter::Append(std::uint64_t ordinal,
                                 const SaveResult& result) {
  const std::string line = RenderEntry(ordinal, result);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!out_.is_open()) {
      return Status::FailedPrecondition("journal writer is not open");
    }
    out_ << line << '\n';
    out_.flush();
    if (!out_.good()) {
      return Status::IoError(
          StrFormat("failed appending to journal '%s'", path_.c_str()));
    }
  }
  // Crash simulation point: the entry above is durable, the batch's
  // in-memory state is not — exactly the window a real crash hits.
  return DISC_FAULT_POINT("journal.append");
}

void SaveJournalWriter::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_.is_open()) out_.close();
}

}  // namespace disc
