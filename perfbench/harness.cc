#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

using easia::Result;
using easia::Status;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Recorder::Scope::Scope(Recorder* recorder, std::string name)
    : recorder_(recorder != nullptr && recorder->active_ ? recorder
                                                         : nullptr) {
  if (recorder_ == nullptr) return;
  SpanRec span;
  span.trace_id = recorder_->trace_id_;
  span.id = static_cast<uint32_t>(recorder_->spans_.size() + 1);
  span.parent = recorder_->current_;
  span.name = std::move(name);
  index_ = span.id - 1;
  restore_ = recorder_->current_;
  recorder_->current_ = span.id;
  recorder_->spans_.push_back(std::move(span));
  recorder_->spans_[index_].start = Now();
}

Recorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->spans_[index_].end = Now();
  recorder_->current_ = restore_;
}

void Recorder::Scope::set_name(std::string name) {
  if (recorder_ != nullptr) recorder_->spans_[index_].name = std::move(name);
}

void Recorder::AddFinished(uint32_t parent, std::string name, double start,
                           double end) {
  if (!active_) return;
  SpanRec span;
  span.trace_id = trace_id_;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
}

std::vector<double> SelfTimes(const std::vector<SpanRec>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const SpanRec& span : spans) {
    if (span.parent == 0) continue;
    self[span.parent - 1] -= span.end - span.start;
  }
  return self;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t Fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Zipf::Zipf(size_t n, double s) {
  double total = 0;
  for (size_t k = 1; k <= n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(std::mt19937_64& rng) const {
  double u = Uniform(rng);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

double Uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

bool IsTokenChar(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '=' ||
         c == '.' || c == '+';
}

}  // namespace

std::string MaskTokens(const std::string& body) {
  // A tokenised URL reads ".../dir/TOKEN;file"; inside an encoded query
  // parameter the same shape is ".../dir%2FTOKEN%3Bfile".
  std::string out;
  out.reserve(body.size());
  size_t i = 0;
  while (i < body.size()) {
    bool raw = body[i] == ';';
    bool encoded = body.compare(i, 3, "%3B") == 0;
    if (!raw && !encoded) {
      out += body[i++];
      continue;
    }
    size_t sep = raw ? out.rfind('/') : out.rfind("%2F");
    size_t seg = sep == std::string::npos ? std::string::npos
                                          : sep + (raw ? 1 : 3);
    bool token = seg != std::string::npos && seg < out.size();
    for (size_t k = token ? seg : out.size(); k < out.size(); ++k) {
      if (!IsTokenChar(out[k])) {
        token = false;
        break;
      }
    }
    if (token) {
      out.resize(seg);
      out += '*';
    }
    size_t len = raw ? 1 : 3;
    out.append(body, i, len);
    i += len;
  }
  return out;
}

long RowCountOf(const std::string& body) {
  size_t end = body.rfind(" rows</p>");
  if (end == std::string::npos) return -1;
  size_t start = body.rfind("<p>", end);
  if (start == std::string::npos) return -1;
  return std::strtol(body.c_str() + start + 3, nullptr, 10);
}

std::string PreTextOf(const std::string& body) {
  size_t start = body.find("<pre>");
  if (start == std::string::npos) return "";
  start += 5;
  size_t end = body.find("</pre>", start);
  if (end == std::string::npos) return "";
  return body.substr(start, end - start);
}

// --- CountingEnv -----------------------------------------------------------

class CountingLogFile : public easia::io::LogFile {
 public:
  CountingLogFile(std::unique_ptr<easia::io::LogFile> base, CountingEnv* env)
      : base_(std::move(base)), env_(env) {}
  Status Append(std::string_view data) override {
    env_->appended_bytes_ += data.size();
    return base_->Append(data);
  }
  Status Sync() override {
    ++env_->syncs_;
    return base_->Sync();
  }
  void Close() override { base_->Close(); }

 private:
  std::unique_ptr<easia::io::LogFile> base_;
  CountingEnv* env_;
};

CountingEnv::CountingEnv() : base_(easia::io::RealEnv()) {}

Result<std::unique_ptr<easia::io::LogFile>> CountingEnv::OpenAppend(
    const std::string& path) {
  Result<std::unique_ptr<easia::io::LogFile>> file = base_->OpenAppend(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<easia::io::LogFile>(
      new CountingLogFile(std::move(*file), this));
}

Result<std::string> CountingEnv::ReadFileToString(const std::string& path) {
  return base_->ReadFileToString(path);
}

bool CountingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status CountingEnv::WriteFileAtomic(const std::string& path,
                                    std::string_view contents) {
  return base_->WriteFileAtomic(path, contents);
}

Status CountingEnv::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}

Status CountingEnv::Truncate(const std::string& path) {
  return base_->Truncate(path);
}

// --- CountingVfs -----------------------------------------------------------

Status CountingVfs::WriteFile(const std::string& path, std::string contents,
                              const std::string& owner) {
  return base_->WriteFile(path, std::move(contents), owner);
}
Status CountingVfs::CreateSparseFile(const std::string& path, uint64_t size,
                                     const std::string& owner) {
  return base_->CreateSparseFile(path, size, owner);
}
Result<std::string> CountingVfs::ReadFile(const std::string& path) const {
  return base_->ReadFile(path);
}
Result<easia::fs::FileStat> CountingVfs::Stat(const std::string& path) const {
  stats_.fetch_add(1, std::memory_order_relaxed);
  return base_->Stat(path);
}
bool CountingVfs::Exists(const std::string& path) const {
  return base_->Exists(path);
}
Status CountingVfs::DeleteFile(const std::string& path) {
  return base_->DeleteFile(path);
}
Status CountingVfs::RenameFile(const std::string& from,
                               const std::string& to) {
  return base_->RenameFile(from, to);
}
Status CountingVfs::Pin(const std::string& path) { return base_->Pin(path); }
Status CountingVfs::Unpin(const std::string& path) {
  return base_->Unpin(path);
}
bool CountingVfs::IsPinned(const std::string& path) const {
  return base_->IsPinned(path);
}
std::vector<std::string> CountingVfs::List(const std::string& prefix) const {
  return base_->List(prefix);
}
uint64_t CountingVfs::TotalBytes() const { return base_->TotalBytes(); }
size_t CountingVfs::FileCount() const { return base_->FileCount(); }

// --- Report ----------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (values_.count(name) == 0) order_.push_back(name);
  values_[name] = {value, unit};
}

void Report::PrintHuman() const {
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    std::printf("  %-34s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
}

std::string Report::Json(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    auto it = values_.find(name);
    double value = it == values_.end() ? 0 : it->second.first;
    std::string unit = it == values_.end() ? "" : it->second.second;
    if (!std::isfinite(value)) value = 1e12;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
