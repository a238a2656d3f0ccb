#include "replay.h"

#include <algorithm>
#include <cctype>
#include <optional>

#include "common/string_util.h"
#include "core/turbulence_setup.h"
#include "db/parser.h"
#include "fileserver/url.h"
#include "web/html.h"
#include "web/renderer.h"

namespace perfbench {

using easia::Result;
using easia::StatusCode;
using easia::StrPrintf;
namespace db = easia::db;
namespace fs = easia::fs;
namespace web = easia::web;
namespace xuis = easia::xuis;

namespace {

std::string ParamOr(const fs::HttpParams& params, const std::string& key,
                    const std::string& fallback = "") {
  auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

/// The web server's error page.
Response Error(int status, const std::string& message) {
  Response resp;
  resp.status = status;
  resp.body = web::PageHeader("Error") + "<p>" + easia::EscapeMarkup(message) +
              "</p>" + web::PageFooter();
  return resp;
}

Response Page(std::string body) {
  Response resp;
  resp.status = 200;
  resp.body = std::move(body);
  return resp;
}

/// ArchiveWebServer::FindOperation.
const xuis::OperationSpec* FindOperation(const xuis::XuisSpec& spec,
                                         const std::string& name) {
  for (const xuis::XuisTable& table : spec.tables) {
    for (const xuis::XuisColumn& col : table.columns) {
      for (const xuis::OperationSpec& op : col.operations) {
        if (op.name == name) return &op;
      }
    }
  }
  return nullptr;
}

easia::ops::InvocationContext Invocation(const web::Session& session) {
  easia::ops::InvocationContext ctx;
  ctx.user = session.user.name;
  ctx.is_guest = session.user.IsGuest();
  ctx.session_id = session.id;
  return ctx;
}

int StatusFor(const easia::Status& status) {
  return status.IsPermissionDenied() ? 403 : 400;
}

/// The handlers' primary-key predicate from pkN.<column> parameters.
std::vector<std::string> PkPredicates(const fs::HttpParams& params) {
  std::vector<std::string> predicates;
  for (const auto& [key, value] : params) {
    if (!easia::StartsWith(key, "pk")) continue;
    size_t dot = key.find('.');
    if (dot == std::string::npos) continue;
    predicates.push_back(key.substr(dot + 1) + " = '" +
                         easia::ReplaceAll(value, "'", "''") + "'");
  }
  return predicates;
}

void OutputList(web::HtmlWriter& w, const std::vector<std::string>& urls) {
  for (const std::string& url : urls) {
    w.Open("li");
    w.Link(url, url);
    w.Close();
  }
}

/// Runs `fn` inside a span named `name`.
template <typename Fn>
auto Timed(Recorder* rec, const std::string& name, Fn&& fn) {
  Recorder::Scope span(rec, name);
  return fn();
}

/// Normalises a SELECT to its shape: quoted and numeric literals become ?.
std::string SqlShape(const std::string& sql) {
  std::string out;
  for (size_t i = 0; i < sql.size(); ++i) {
    char c = sql[i];
    if (c == '\'') {
      size_t j = i + 1;
      while (j < sql.size()) {
        if (sql[j] == '\'' && j + 1 < sql.size() && sql[j + 1] == '\'') {
          j += 2;
          continue;
        }
        if (sql[j] == '\'') break;
        ++j;
      }
      out += '?';
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) &&
               (out.empty() || !(std::isalnum(static_cast<unsigned char>(
                                     out.back())) ||
                                 out.back() == '_'))) {
      while (i + 1 < sql.size() &&
             std::isdigit(static_cast<unsigned char>(sql[i + 1]))) {
        ++i;
      }
      out += '?';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

Replayer::Replayer(Site* site, Recorder* recorder)
    : site_(site), rec_(recorder), tracer_([this] {
        easia::obs::Tracer::Options options;
        options.clock = &clock_;
        options.ring_capacity = 1 << 14;
        return options;
      }()) {
  // The DataLinker's token gate, re-installed with a span around it: the
  // same CheckRead + TokenManager::Validate composition the DataLink
  // manager wires at EnsureLinker.
  if (rec_ == nullptr) return;
  easia::med::DataLinkManager* med = &site_->archive->med();
  for (const char* host : kHosts) {
    fs::FileServer* server = *site_->archive->fleet().GetServer(host);
    easia::med::DataLinker* linker = *med->GetLinker(host);
    server->SetReadGate([this, med, linker](const std::string& path,
                                            const std::string& token) {
      Recorder::Scope span(rec_, "med.validate");
      return linker->CheckRead(
          path, token, [med](const std::string& tok, const std::string& p) {
            return med->tokens().Validate(tok, p, med->clock()->Now());
          });
    });
  }
}

Replayer::~Replayer() {
  if (rec_ == nullptr) return;
  easia::med::DataLinkManager* med = &site_->archive->med();
  for (const char* host : kHosts) {
    fs::FileServer* server = *site_->archive->fleet().GetServer(host);
    easia::med::DataLinker* linker = *med->GetLinker(host);
    server->SetReadGate([med, linker](const std::string& path,
                                      const std::string& token) {
      return linker->CheckRead(
          path, token, [med](const std::string& tok, const std::string& p) {
            return med->tokens().Validate(tok, p, med->clock()->Now());
          });
    });
  }
}

template <typename Fn>
auto Replayer::Harvested(const char* name, Fn&& render) {
  if (rec_ == nullptr) return render();
  easia::core::Archive& archive = *site_->archive;
  std::vector<fs::FileServer*> servers;
  for (const char* host : kHosts) {
    servers.push_back(*archive.fleet().GetServer(host));
  }
  tracer_.Clear();
  archive.database().set_tracer(&tracer_);
  for (fs::FileServer* server : servers) server->set_tracer(&tracer_);
  uint32_t parent = 0;
  auto result = [&] {
    Recorder::Scope span(rec_, name);
    parent = span.id();
    return render();
  }();
  archive.database().set_tracer(archive.tracer());
  for (fs::FileServer* server : servers) server->set_tracer(archive.tracer());
  for (const easia::obs::Span& span : tracer_.Snapshot()) {
    if (span.parent_span_id != 0) continue;
    const char* layer = span.name == "planner:select" ? "db.select"
                        : span.name == "fs:stat"      ? "fs.stat"
                                                      : nullptr;
    if (layer == nullptr) continue;
    rec_->AddFinished(parent, layer, span.start, span.start + span.duration);
  }
  return result;
}

void Replayer::NoteSelect(const std::string& sql) {
  facts_.select_shapes.try_emplace(SqlShape(sql), sql);
}

Result<db::QueryResult> Replayer::Execute(const std::string& sql,
                                          const std::string& user,
                                          bool write) {
  // Database::Execute is ParseSql + ExecuteStatement; DATALINK tokens are
  // minted by the caller, one span per cell.
  Result<db::Statement> stmt =
      Timed(rec_, "db.parse", [&] { return db::ParseSql(sql); });
  if (!stmt.ok()) return stmt.status();
  db::ExecContext ctx;
  ctx.user = user;
  ctx.resolve_datalinks = false;
  Result<db::QueryResult> result =
      Timed(rec_, write ? "db.write" : "db.select", [&] {
        return site_->archive->database().ExecuteStatement(*stmt, sql, ctx);
      });
  if (result.ok() && !write) {
    NoteSelect(sql);
    facts_.rows_per_select.push_back(static_cast<double>(result->rows.size()));
  }
  return result;
}

Response Replayer::RenderQuery(const std::string& sql,
                               const xuis::XuisTable* table,
                               const web::Session& session) {
  easia::core::Archive& archive = *site_->archive;
  db::Database& database = archive.database();
  const std::string& user = session.user.name;
  Result<db::QueryResult> result = Execute(sql, user, /*write=*/false);
  if (!result.ok()) return Error(400, result.status().ToString());
  // The executor's DATALINK presentation rewrite, one token per cell.
  Result<const db::TableDef*> def = database.catalog().GetTable(table->name);
  for (size_t c = 0; def.ok() && c < result->column_names.size(); ++c) {
    const db::ColumnDef* col = (*def)->FindColumn(result->column_names[c]);
    if (col == nullptr || col->type != db::DataType::kDatalink ||
        !col->datalink.has_value()) {
      continue;
    }
    for (db::Row& row : result->rows) {
      if (row[c].is_null()) continue;
      Result<std::string> url = Timed(rec_, "med.token", [&] {
        return archive.med().ResolveForRead(*col->datalink,
                                            row[c].AsString(), user);
      });
      if (!url.ok()) return Error(400, url.status().ToString());
      row[c] = db::Value::Datalink(std::move(*url));
    }
  }
  web::RenderContext ctx;
  ctx.spec = &archive.xuis().For(user);
  ctx.table = table;
  ctx.database = &database;
  ctx.fleet = &archive.fleet();
  ctx.is_guest = session.user.IsGuest();
  // The renderer's FK-substitute lookups, by shape (the SQL is built
  // inside the renderer).
  for (const xuis::XuisColumn& col : table->columns) {
    if (!col.fk.has_value() || col.fk->subst_column.empty()) continue;
    Result<std::pair<std::string, std::string>> target =
        xuis::SplitColid(col.fk->table_column);
    Result<std::pair<std::string, std::string>> subst =
        xuis::SplitColid(col.fk->subst_column);
    if (!target.ok() || !subst.ok() || result->rows.empty()) continue;
    NoteSelect("SELECT " + subst->second + " FROM " + subst->first +
               " WHERE " + target->second + " = 'x'");
  }
  Result<std::string> html = Harvested(
      "web.render", [&] { return web::RenderResultTable(*result, ctx); });
  if (!html.ok()) return Error(500, html.status().ToString());
  return Page(std::move(*html));
}

Response Replayer::Replay(Client& client, const Op& op) {
  easia::core::Archive& archive = *site_->archive;
  switch (op.kind) {
    case Op::Kind::kGet: {
      return ReplayGet(client.session(op.user), op.path, op.params);
    }
    case Op::Kind::kArchiveResult:
    case Op::Kind::kDelete: {
      if (op.kind == Op::Kind::kArchiveResult) {
        Result<fs::FileServer*> server = archive.fleet().GetServer(op.host);
        if (!server.ok()) return Error(500, server.status().ToString());
        easia::Status created = Timed(rec_, "fs.create", [&] {
          return (*server)->vfs().CreateSparseFile(
              op.file_path, easia::turb::kLargeSimulationBytes);
        });
        if (!created.ok()) return Error(500, created.ToString());
      }
      // Archive::Execute runs as the "system" user.
      Result<db::QueryResult> result =
          Execute(op.sql, "system", /*write=*/true);
      Response resp;
      resp.status = result.ok() && result->rows_affected == 1 ? 200 : 500;
      if (!result.ok()) resp.body = result.status().ToString();
      return resp;
    }
    case Op::Kind::kDownload: {
      if (client.links.empty()) return Error(404, "no link");
      const std::string& url = client.links[op.pick % client.links.size()];
      double start = archive.clock().Now();
      // Archive::Download: resolve, Get through the token gate, transfer.
      Result<std::pair<fs::FileServer*, fs::FileUrl>> resolved =
          archive.fleet().Resolve(url);
      if (!resolved.ok()) return Error(500, resolved.status().ToString());
      const fs::FileUrl& parsed = resolved->second;
      std::string request_path = parsed.Directory();
      if (!parsed.token.empty()) request_path += parsed.token + ";";
      request_path += parsed.filename;
      Result<fs::GetResult> got = Timed(rec_, "fs.get", [&] {
        return resolved->first->Get(request_path);
      });
      if (!got.ok()) return Error(500, got.status().ToString());
      Result<double> estimate = archive.network().EstimateTransfer(
          parsed.host, kClientHost, got->stat.size, start);
      Result<easia::sim::TransferRecord> record =
          Timed(rec_, "sim.transfer", [&] {
            return archive.network().Transfer(parsed.host, kClientHost,
                                              got->stat.size);
          });
      if (!record.ok()) return Error(500, record.status().ToString());
      if (estimate.ok()) facts_.transfer_s_download.push_back(*estimate);
      Response resp;
      resp.status = 200;
      resp.body = url;
      resp.sim_start = start;
      resp.sim_seconds = record->duration_seconds;
      return resp;
    }
    case Op::Kind::kJobBatch: {
      Response resp;
      resp.status = 200;
      for (const fs::HttpParams& job : op.jobs) {
        Response submitted =
            ReplayGet(client.session(op.user), "/jobs/submit", job);
        Result<int64_t> id = easia::ParseInt64(submitted.body);
        if (!submitted.ok() || !id.ok()) {
          resp.status = submitted.ok() ? 500 : submitted.status;
          break;
        }
        resp.job_ids.push_back(static_cast<easia::jobs::JobId>(*id));
      }
      // JobScheduler::RunPending, one span per StepOne.
      for (;;) {
        Recorder::Scope span(rec_, "jobs.exec");
        if (!archive.jobs().StepOne()) break;
      }
      return resp;
    }
  }
  return Error(500, "unknown operation");
}

Response Replayer::ReplayGet(const std::string& session_id,
                             const std::string& path,
                             const fs::HttpParams& params) {
  easia::core::Archive& archive = *site_->archive;
  // RequireSession.
  if (session_id.empty()) return Error(401, "log in first");
  Result<web::Session> found = Timed(rec_, "web.session", [&] {
    return archive.sessions().Get(session_id);
  });
  if (!found.ok()) return Error(401, found.status().message());
  const web::Session session = std::move(*found);
  const std::string& user = session.user.name;
  const xuis::XuisSpec& spec = archive.xuis().For(user);

  // CachedRender: look up, render on a miss, store a successful page.
  auto cached = [&](bool per_user, const std::string& route,
                    const std::string& key_params, auto&& render) {
    uint64_t epoch = archive.database().commit_epoch();
    web::RenderCache::Key key;
    key.visibility = per_user || archive.xuis().HasPersonal(user)
                         ? "u:" + user
                         : session.user.IsGuest() ? "role:guest"
                                                  : "role:auth";
    key.route = route;
    key.params = key_params;
    uint64_t revision = archive.xuis().revision();
    std::optional<web::CachedPage> page;
    {
      Recorder::Scope span(rec_, "web.cache_get");
      page = archive.render_cache().Get(key, epoch, revision);
      span.set_name(page.has_value() ? "web.cache_get.hit"
                                     : "web.cache_get.miss");
    }
    if (page.has_value()) return Page(std::move(page->body));
    Response resp = render();
    if (resp.ok()) {
      Recorder::Scope span(rec_, "web.cache_put");
      web::CachedPage store;
      store.content_type = route == "/typeahead" ? "text/plain" : "text/html";
      store.body = resp.body;
      archive.render_cache().Put(key, epoch, revision, std::move(store));
    }
    return resp;
  };

  if (path == "/browse") {
    std::string table_name = ParamOr(params, "table");
    std::string column = ParamOr(params, "column");
    std::string value = ParamOr(params, "value");
    return cached(true, "/browse",
                  "table=" + table_name + "&column=" + column +
                      "&value=" + value,
                  [&]() -> Response {
                    Result<std::string> sql = Timed(rec_, "web.qbe", [&] {
                      return web::BrowseSql(spec, table_name, column, value);
                    });
                    if (!sql.ok()) {
                      return Error(sql.status().IsPermissionDenied() ? 403
                                                                     : 400,
                                   sql.status().ToString());
                    }
                    return RenderQuery(*sql, spec.FindTable(table_name),
                                       session);
                  });
  }
  if (path == "/search") {
    web::QbeRequest qbe = QbeFromParams(spec, params);
    const xuis::XuisTable* table = spec.FindTable(qbe.table);
    if (table == nullptr || table->hidden) return Error(404, "no such table");
    Result<std::string> sql =
        Timed(rec_, "web.qbe", [&] { return web::TranslateToSql(spec, qbe); });
    if (!sql.ok()) return Error(400, sql.status().ToString());
    return RenderQuery(*sql, table, session);
  }
  if (path == "/typeahead") {
    std::string table_name = ParamOr(params, "table");
    std::string column = ParamOr(params, "column");
    std::string prefix = ParamOr(params, "prefix");
    std::string limit = ParamOr(params, "limit", "10");
    return cached(
        false, "/typeahead",
        "table=" + table_name + "&column=" + column + "&prefix=" + prefix +
            "&limit=" + limit,
        [&]() -> Response {
          const xuis::XuisTable* table = spec.FindTable(table_name);
          if (table == nullptr || table->hidden) {
            return Error(404, "no such table");
          }
          const xuis::XuisColumn* col = table->FindColumn(column);
          if (col == nullptr || col->hidden) {
            return Error(404, "no such column");
          }
          Result<int64_t> n = easia::ParseInt64(limit);
          if (!n.ok() || *n <= 0 || *n > 1000) return Error(400, "bad limit");
          std::string pattern = easia::EscapeLikePattern(prefix) + "%";
          std::string sql = "SELECT DISTINCT " + column + " FROM " +
                            table_name + " WHERE " + column + " LIKE '" +
                            easia::ReplaceAll(pattern, "'", "''") +
                            "' ORDER BY " + column + " LIMIT " +
                            std::to_string(*n);
          Result<db::QueryResult> result = Execute(sql, user, /*write=*/false);
          if (!result.ok()) return Error(400, result.status().ToString());
          Response resp;
          resp.status = 200;
          for (const db::Row& row : result->rows) {
            if (row[0].is_null()) continue;
            resp.body += row[0].ToDisplayString();
            resp.body += "\n";
          }
          return resp;
        });
  }
  if (path == "/object") {
    const xuis::XuisTable* table = spec.FindTable(ParamOr(params, "table"));
    if (table == nullptr) return Error(404, "no such table");
    std::vector<std::string> predicates = PkPredicates(params);
    if (predicates.empty()) return Error(400, "missing primary key");
    std::string sql = "SELECT " + ParamOr(params, "column") + " FROM " +
                      ParamOr(params, "table") + " WHERE " +
                      easia::Join(predicates, " AND ");
    Result<db::QueryResult> result = Execute(sql, user, /*write=*/false);
    if (!result.ok()) return Error(400, result.status().ToString());
    if (result->rows.empty() || result->rows[0][0].is_null()) {
      return Error(404, "object not found");
    }
    return Page(result->rows[0][0].AsString());
  }
  if (path == "/object/put") {
    if (session.user.IsGuest()) {
      return Error(403, "object upload requires an authorised account");
    }
    std::string table_name = ParamOr(params, "table");
    std::string column = ParamOr(params, "column");
    const xuis::XuisColumn* col =
        spec.FindColumnById(table_name + "." + column);
    if (col == nullptr) return Error(404, "no such column");
    if (col->type != db::DataType::kBlob &&
        col->type != db::DataType::kClob) {
      return Error(400, "column is not a BLOB/CLOB");
    }
    std::vector<std::string> predicates = PkPredicates(params);
    if (predicates.empty()) return Error(400, "missing primary key");
    std::string value = ParamOr(params, "value");
    std::string sql = "UPDATE " + table_name + " SET " + column + " = '" +
                      easia::ReplaceAll(value, "'", "''") + "' WHERE " +
                      easia::Join(predicates, " AND ");
    Result<db::QueryResult> result = Execute(sql, user, /*write=*/true);
    if (!result.ok()) {
      StatusCode code = result.status().code();
      return Error(code == StatusCode::kUnavailable ||
                           code == StatusCode::kAborted
                       ? 503
                       : 400,
                   result.status().ToString());
    }
    if (result->rows_affected == 0) return Error(404, "no matching row");
    return Page(web::PageHeader("Object stored") +
                StrPrintf("<p>%zu bytes stored in %s.%s</p>", value.size(),
                          table_name.c_str(), column.c_str()) +
                web::PageFooter());
  }
  if (path == "/tables") {
    return cached(false, "/tables", "", [&]() -> Response {
      Recorder::Scope span(rec_, "web.render");
      return Page(web::RenderTableIndex(spec));
    });
  }
  if (path == "/query") {
    std::string table_name = ParamOr(params, "table");
    return cached(false, "/query", "table=" + table_name, [&]() -> Response {
      const xuis::XuisTable* table = spec.FindTable(table_name);
      if (table == nullptr || table->hidden) return Error(404, "no such table");
      Recorder::Scope span(rec_, "web.render");
      return Page(web::RenderQueryForm(*table));
    });
  }
  if (path == "/runop") {
    const xuis::OperationSpec* op = FindOperation(spec, ParamOr(params, "op"));
    if (op == nullptr) return Error(404, "no such operation");
    std::string dataset = ParamOr(params, "dataset");
    if (dataset.empty()) return Error(400, "missing dataset");
    fs::HttpParams op_params;
    for (const auto& [key, value] : params) {
      if (key != "op" && key != "dataset") op_params[key] = value;
    }
    Result<easia::ops::OperationResult> result =
        Timed(rec_, "ops.invoke." + op->name, [&] {
          return archive.engine().Invoke(*op, dataset, op_params,
                                         Invocation(session));
        });
    if (!result.ok()) {
      return Error(StatusFor(result.status()), result.status().ToString());
    }
    facts_.input_bytes.push_back(static_cast<double>(result->input_bytes));
    facts_.output_bytes.push_back(static_cast<double>(result->output_bytes));
    Result<double> shipped = archive.network().EstimateTransfer(
        result->host, kClientHost, result->output_bytes,
        archive.clock().Now());
    if (shipped.ok()) facts_.transfer_s_output.push_back(*shipped);
    if (easia::EqualsIgnoreCase(op->type, "EASCRIPT")) {
      facts_.script_steps.push_back(static_cast<double>(result->script_steps));
      facts_.script_sources.push_back(
          easia::core::GetImageScriptSource());
    }
    Recorder::Scope span(rec_, "web.render");
    web::HtmlWriter w;
    w.Raw(web::PageHeader("Output from " + op->name));
    w.Open("pre").Text(result->output.text).Close();
    if (!result->output_urls.empty()) {
      w.Element("p", "Output files:");
      w.Open("ul");
      OutputList(w, result->output_urls);
      w.Close();
    }
    w.Element("p", StrPrintf("host=%s input=%s output=%s%s",
                             result->host.c_str(),
                             easia::HumanBytes(result->input_bytes).c_str(),
                             easia::HumanBytes(result->output_bytes).c_str(),
                             result->cache_hit ? " (cached)" : ""));
    w.Raw(web::PageFooter());
    return Page(w.Finish());
  }
  if (path == "/upload") {
    if (!session.user.CanUploadCode()) {
      return Error(403, "code upload is not available to guest users");
    }
    std::string colid =
        ParamOr(params, "table") + "." + ParamOr(params, "column");
    const xuis::XuisColumn* col = spec.FindColumnById(colid);
    if (col == nullptr) return Error(404, "no such column " + colid);
    if (!col->upload.has_value()) {
      return Error(403, "column does not accept code upload");
    }
    std::string code = ParamOr(params, "code");
    Result<easia::ops::OperationResult> result = Timed(rec_, "ops.upload", [&] {
      return archive.engine().RunUploadedCode(
          *col->upload, code, ParamOr(params, "filename", "main.ea"),
          ParamOr(params, "dataset"), {}, Invocation(session));
    });
    if (!result.ok()) {
      return Error(StatusFor(result.status()), result.status().ToString());
    }
    facts_.input_bytes.push_back(static_cast<double>(result->input_bytes));
    facts_.output_bytes.push_back(static_cast<double>(result->output_bytes));
    facts_.script_steps.push_back(static_cast<double>(result->script_steps));
    facts_.script_sources.push_back(code);
    Result<double> shipped = archive.network().EstimateTransfer(
        result->host, kClientHost, result->output_bytes,
        archive.clock().Now());
    if (shipped.ok()) facts_.transfer_s_output.push_back(*shipped);
    Recorder::Scope span(rec_, "web.render");
    web::HtmlWriter w;
    w.Raw(web::PageHeader("Uploaded code output"));
    w.Open("pre").Text(result->output.text).Close();
    w.Open("ul");
    OutputList(w, result->output_urls);
    w.Close();
    w.Raw(web::PageFooter());
    return Page(w.Finish());
  }
  if (path == "/jobs/submit") {
    // HandleJobSubmit for kind=op jobs.
    easia::jobs::JobSpec job;
    Result<easia::jobs::JobKind> kind =
        easia::jobs::JobKindFromName(ParamOr(params, "kind"));
    if (!kind.ok()) return Error(400, kind.status().ToString());
    if (*kind != easia::jobs::JobKind::kInvoke) {
      return Error(400, "replay covers kind=op jobs only");
    }
    job.kind = *kind;
    job.user = user;
    job.is_guest = session.user.IsGuest();
    job.session_id = session.id;
    job.datasets = easia::SplitAndTrim(ParamOr(params, "dataset"), ',');
    if (job.datasets.empty()) return Error(400, "missing dataset");
    job.operation = ParamOr(params, "op");
    const xuis::OperationSpec* op = FindOperation(spec, job.operation);
    if (op == nullptr) return Error(404, "no such operation");
    if (session.user.IsGuest() && !op->guest_access) {
      return Error(403, "operation not available to guests");
    }
    Result<int64_t> priority = easia::ParseInt64(ParamOr(params, "priority",
                                                         "0"));
    if (priority.ok()) job.priority = static_cast<int32_t>(*priority);
    Result<int64_t> timeout = easia::ParseInt64(ParamOr(params, "timeout",
                                                        "0"));
    if (timeout.ok() && *timeout > 0) {
      job.timeout_seconds = static_cast<double>(*timeout);
    }
    Result<int64_t> attempts = easia::ParseInt64(ParamOr(params, "attempts",
                                                         "3"));
    if (attempts.ok() && *attempts > 0) {
      job.max_attempts =
          static_cast<uint32_t>(std::min<int64_t>(*attempts, 10));
    }
    for (const auto& [key, value] : params) {
      if (key == "kind" || key == "op" || key == "chain" ||
          key == "dataset" || key == "priority" || key == "timeout" ||
          key == "attempts" || key == "code" || key == "filename" ||
          key == "table" || key == "column") {
        continue;
      }
      job.params[key] = value;
    }
    Result<easia::jobs::Job> submitted = Timed(rec_, "jobs.submit", [&] {
      return archive.jobs().Submit(std::move(job));
    });
    if (!submitted.ok()) {
      return Error(submitted.status().IsResourceExhausted() ? 429 : 400,
                   submitted.status().ToString());
    }
    return Page(StrPrintf("%llu",
                          static_cast<unsigned long long>(submitted->id)));
  }
  return Error(404, "no such page: " + path);
}

}  // namespace perfbench
