#ifndef DISC_COMMON_JSONL_SINK_H_
#define DISC_COMMON_JSONL_SINK_H_

#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <utility>

#include "common/json_writer.h"
#include "common/status.h"

namespace disc {

/// Consumer of finished records of one kind: spans (TraceSink) or decision
/// logs (ExplainSink). Emit() must accept calls from any thread,
/// concurrently.
template <class T>
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void Emit(const T& item) = 0;
};

/// JSON-Lines sink: one object per emitted item, serialized by `append`.
/// Lines are buffered and written on Close()/destruction to `path`, or to
/// stdout when `path` is empty or "-". Close() reports every I/O failure (an
/// unopenable path, a short fwrite, a failed fflush or fclose) for a file
/// and for stdout alike; the exports are best-effort, so a failed write
/// never fails a save, but the caller learns of it.
template <class T>
class JsonlSink : public Sink<T> {
 public:
  using Append = std::function<void(JsonWriter&, const T&)>;

  /// `kind` names the export in error messages ("trace", "explain").
  JsonlSink(std::string path, std::string kind, Append append)
      : path_(path == "-" ? "" : std::move(path)),
        kind_(std::move(kind)),
        append_(std::move(append)) {}
  ~JsonlSink() override { Close(); }

  void Emit(const T& item) override {
    JsonWriter json;
    append_(json, item);

    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    buffer_ += json.str();
    buffer_ += '\n';
  }

  /// True unless Close() hit an I/O error.
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return status_.ok();
  }

  /// Writes the buffered lines and closes; returns the first I/O error, if
  /// any. Idempotent: later calls return the same status. Output smaller
  /// than the stdio buffer fails only at the flush or the close, so every
  /// step is checked.
  Status Close() {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return status_;
    closed_ = true;
    const bool to_stdout = path_.empty();
    std::FILE* f = to_stdout ? stdout : std::fopen(path_.c_str(), "wb");
    if (f == nullptr) {
      status_ = Status::Internal("cannot open " + kind_ + " file " + path_);
    } else {
      bool ok = std::fwrite(buffer_.data(), 1, buffer_.size(), f) ==
                buffer_.size();
      ok = std::fflush(f) == 0 && ok;
      if (!to_stdout) ok = std::fclose(f) == 0 && ok;
      if (!ok) {
        status_ = Status::Internal("short write to " + kind_ + " " +
                                   (to_stdout ? "stdout" : "file " + path_));
      }
    }
    buffer_.clear();
    return status_;
  }

 private:
  mutable std::mutex mu_;
  const std::string path_;
  const std::string kind_;
  const Append append_;
  std::string buffer_;
  Status status_;
  bool closed_ = false;
};

}  // namespace disc

#endif  // DISC_COMMON_JSONL_SINK_H_
