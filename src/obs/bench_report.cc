#include "src/obs/bench_report.h"

#include <cstdlib>

#include "src/obs/diag.h"
#include "src/obs/run_report.h"
#include "src/util/file_util.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

StageTimer::StageTimer(BenchReporter* reporter, std::string name)
    : reporter_(reporter), name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

StageTimer::StageTimer(StageTimer&& other) noexcept
    : reporter_(other.reporter_),
      name_(std::move(other.name_)),
      items_(other.items_),
      bytes_(other.bytes_),
      start_(other.start_) {
  other.reporter_ = nullptr;
}

StageTimer::~StageTimer() {
  if (reporter_ == nullptr) {
    return;
  }
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                       .count();
  reporter_->AddStage(BenchStage{std::move(name_), seconds, items_, bytes_});
}

BenchReporter::BenchReporter(std::string name) : name_(std::move(name)) {}

BenchReporter::~BenchReporter() {
  if (!written_) {
    WriteJson();
  }
}

void BenchReporter::AddNote(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void BenchReporter::AddStage(BenchStage stage) { stages_.push_back(std::move(stage)); }

std::string BenchReporter::path() const {
  const char* dir = getenv("DEPSURF_BENCH_DIR");
  std::string prefix = dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/" : "";
  return prefix + "BENCH_" + name_ + ".json";
}

Status BenchReporter::WriteJson() {
  written_ = true;
  std::string out = "{\n\"schema\": \"";
  out += kBenchReportSchema;
  out += "\",\n\"bench\": \"" + JsonEscape(name_) + "\",\n";
  out += "\"notes\": {";
  for (size_t i = 0; i < notes_.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += "\"" + JsonEscape(notes_[i].first) + "\": \"" + JsonEscape(notes_[i].second) + "\"";
  }
  out += "},\n\"stages\": [";
  for (size_t i = 0; i < stages_.size(); ++i) {
    const BenchStage& stage = stages_[i];
    if (i != 0) {
      out += ",";
    }
    out += "\n  ";
    out += StrFormat(
        "{\"name\": \"%s\", \"seconds\": %.6f, \"items\": %llu, "
        "\"items_per_sec\": %.3f, \"bytes\": %llu, \"bytes_per_sec\": %.1f}",
        JsonEscape(stage.name).c_str(), stage.seconds, (unsigned long long)stage.items,
        stage.seconds > 0 ? static_cast<double>(stage.items) / stage.seconds : 0.0,
        (unsigned long long)stage.bytes,
        stage.seconds > 0 ? static_cast<double>(stage.bytes) / stage.seconds : 0.0);
  }
  out += "\n]\n}\n";

  Status written = WriteFile(path(), out);
  if (!written.ok()) {
    Diag(Severity::kWarning, "bench report not written", written.error());
  }
  return written;
}

}  // namespace obs
}  // namespace depsurf
