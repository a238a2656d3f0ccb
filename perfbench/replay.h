#ifndef EASIA_PERFBENCH_REPLAY_H_
#define EASIA_PERFBENCH_REPLAY_H_

// The traced run's view of a request: an operation replayed as the
// sequence of public layer calls its handler makes, one benchmark span per
// call. Nothing here is inside the archive; calls the benchmark cannot
// wrap (the renderer's own FK lookups and DATALINK size probes) are timed
// by the archive's existing planner:select and fs:stat spans, read off a
// steady-clock tracer that is attached only while the renderer runs.

#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "workload.h"

namespace perfbench {

/// What the replays saw, for the per-layer counts.
struct ReplayFacts {
  std::vector<double> rows_per_select;
  std::map<std::string, std::string> select_shapes;  // shape -> sample SQL
  std::vector<double> script_steps;     // per EaScript operation
  std::vector<double> input_bytes;      // per operation result
  std::vector<double> output_bytes;     // per operation result
  std::vector<double> transfer_s_download;
  std::vector<double> transfer_s_output;
  std::vector<std::string> script_sources;  // EaScript each op parsed
};

class Replayer {
 public:
  /// With a null `recorder` the replay runs untraced (the overhead
  /// baseline).
  Replayer(Site* site, Recorder* recorder);
  ~Replayer();

  /// Replays `op` for `client` (whose sessions live on this site) and
  /// returns what Archive::Get / Execute / Download would have.
  Response Replay(Client& client, const Op& op);

  ReplayFacts& facts() { return facts_; }

 private:
  Response ReplayGet(const std::string& session_id, const std::string& path,
                     const easia::fs::HttpParams& params);
  /// Database::Execute as its two public calls, with DATALINK tokens left
  /// to the caller.
  easia::Result<easia::db::QueryResult> Execute(const std::string& sql,
                                                const std::string& user,
                                                bool write);
  /// RenderQuery of the web server: parse, execute, mint tokens, render.
  Response RenderQuery(const std::string& sql,
                       const easia::xuis::XuisTable* table,
                       const easia::web::Session& session);
  /// Runs `render` in a span named `name`, with the archive's steady-clock
  /// tracer attached, and grafts the planner:select and fs:stat spans it
  /// produced under that span.
  template <typename Fn>
  auto Harvested(const char* name, Fn&& render);
  void NoteSelect(const std::string& sql);

  Site* site_;
  Recorder* rec_;
  SteadyClock clock_;
  easia::obs::Tracer tracer_;
  ReplayFacts facts_;
};

}  // namespace perfbench

#endif  // EASIA_PERFBENCH_REPLAY_H_
