#include "txn/checkpoint.h"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

#include "obs/trace.h"
#include "storage/io.h"
#include "txn/failpoint.h"

namespace ivm {

namespace fs = std::filesystem;

namespace {

/// Checkpoints use the lossless CSV encoding: value kinds survive the round
/// trip (2.0 stays a double, Null stays Null) and strings may carry
/// newlines, CRs, NULs, and backslashes — all values the WAL itself encodes.
CsvOptions CheckpointCsvOptions() {
  CsvOptions options;
  options.lossless = true;
  return options;
}

/// fsync a file or directory. ofstream::flush only reaches the page cache;
/// the checkpoint must be on disk before Checkpoint() truncates the fsync'd
/// WAL, or a power loss could lose both. No-op where fsync is unavailable.
Status SyncPath(const fs::path& path, bool directory) {
#ifdef __unix__
  int flags = O_RDONLY;
#ifdef O_DIRECTORY
  if (directory) flags |= O_DIRECTORY;
#endif
  int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    return Status::Internal("cannot open " + path.string() + " for fsync");
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Internal("fsync failed for " + path.string());
  }
#else
  (void)path;
  (void)directory;
#endif
  return Status::OK();
}

Status WriteRelationFile(const fs::path& path, const Relation& rel) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot create checkpoint file " + path.string());
    }
    IVM_RETURN_IF_ERROR(
        WriteCsv(rel, CheckpointCsvOptions(), /*with_counts=*/true, &out));
    out.flush();
    if (!out) {
      return Status::Internal("write failed for checkpoint file " +
                              path.string());
    }
  }
  return SyncPath(path, /*directory=*/false);
}

Status ReadRelationFile(const fs::path& path, Relation* rel) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Internal("cannot open checkpoint file " + path.string());
  }
  return ReadCountedCsv(in, CheckpointCsvOptions(), rel);
}

/// One `<name> <arity> <filename>` index line.
Status ParseIndexLine(const std::string& line, std::string* name,
                      size_t* arity, std::string* filename) {
  std::istringstream parts(line);
  if (!(parts >> *name >> *arity >> *filename)) {
    return Status::InvalidArgument("malformed checkpoint index line: " + line);
  }
  return Status::OK();
}

Result<CheckpointData> ReadCheckpointDir(const fs::path& cp) {
  std::ifstream in(cp / "MANIFEST", std::ios::binary);
  if (!in) {
    return Status::NotFound("no checkpoint manifest in " + cp.string());
  }
  CheckpointData data;
  std::string line;
  if (!std::getline(in, line) || line != "ivm-checkpoint 1") {
    return Status::InvalidArgument("bad checkpoint manifest header in " +
                                   cp.string());
  }
  std::string word;
  size_t program_bytes = 0;
  size_t num_base = 0;
  size_t num_views = 0;
  if (!(in >> word >> data.epoch) || word != "epoch") {
    return Status::InvalidArgument("bad 'epoch' line in checkpoint manifest");
  }
  if (!(in >> word >> data.strategy) || word != "strategy") {
    return Status::InvalidArgument("bad 'strategy' line in checkpoint manifest");
  }
  if (!(in >> word >> data.semantics) || word != "semantics") {
    return Status::InvalidArgument(
        "bad 'semantics' line in checkpoint manifest");
  }
  if (!(in >> word >> program_bytes) || word != "program") {
    return Status::InvalidArgument("bad 'program' line in checkpoint manifest");
  }
  in.get();  // the newline after the byte count
  data.program_text.resize(program_bytes);
  in.read(data.program_text.data(), static_cast<std::streamsize>(program_bytes));
  if (in.gcount() != static_cast<std::streamsize>(program_bytes)) {
    return Status::InvalidArgument("truncated program text in checkpoint");
  }
  if (!(in >> word >> num_base) || word != "base") {
    return Status::InvalidArgument("bad 'base' line in checkpoint manifest");
  }
  in.get();
  for (size_t i = 0; i < num_base; ++i) {
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("truncated base index in checkpoint");
    }
    std::string name, filename;
    size_t arity;
    IVM_RETURN_IF_ERROR(ParseIndexLine(line, &name, &arity, &filename));
    Relation rel(name, arity);
    IVM_RETURN_IF_ERROR(ReadRelationFile(cp / filename, &rel));
    data.base.emplace(name, std::move(rel));
  }
  if (!(in >> word >> num_views) || word != "views") {
    return Status::InvalidArgument("bad 'views' line in checkpoint manifest");
  }
  in.get();
  for (size_t i = 0; i < num_views; ++i) {
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("truncated view index in checkpoint");
    }
    std::string name, filename;
    size_t arity;
    IVM_RETURN_IF_ERROR(ParseIndexLine(line, &name, &arity, &filename));
    Relation rel(name, arity);
    IVM_RETURN_IF_ERROR(ReadRelationFile(cp / filename, &rel));
    data.views.emplace(name, std::move(rel));
  }
  if (!std::getline(in, line) || line != "end") {
    return Status::InvalidArgument("checkpoint manifest missing 'end' marker");
  }
  return data;
}

}  // namespace

Status WriteCheckpoint(const std::string& dir, const CheckpointSource& data,
                       MetricsRegistry* metrics) {
  std::error_code ec;
  const fs::path root(dir);
  const fs::path tmp = root / "checkpoint.tmp";
  const fs::path live = root / "checkpoint";
  const fs::path old = root / "checkpoint.old";

  TraceSpan write_span(metrics, "checkpoint.write");
  fs::create_directories(root, ec);
  fs::remove_all(tmp, ec);
  if (!fs::create_directories(tmp, ec) && ec) {
    return Status::Internal("cannot create " + tmp.string() + ": " +
                            ec.message());
  }

  // 1. Relation files first; the manifest that indexes them is written last,
  // so a crash here leaves a manifest-less (= invisible) staging dir.
  for (const auto& [name, rel] : data.base) {
    IVM_RETURN_IF_ERROR(
        WriteRelationFile(tmp / ("base_" + name + ".csv"), *rel));
    IVM_FAILPOINT("checkpoint.relation");
  }
  for (const auto& [name, rel] : data.views) {
    IVM_RETURN_IF_ERROR(
        WriteRelationFile(tmp / ("view_" + name + ".csv"), *rel));
    IVM_FAILPOINT("checkpoint.relation");
  }

  IVM_FAILPOINT("checkpoint.manifest");

  // 2. Manifest.
  {
    std::ofstream out(tmp / "MANIFEST", std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot create checkpoint manifest in " +
                              tmp.string());
    }
    out << "ivm-checkpoint 1\n";
    out << "epoch " << data.epoch << "\n";
    out << "strategy " << data.strategy << "\n";
    out << "semantics " << data.semantics << "\n";
    out << "program " << data.program_text.size() << "\n";
    out << data.program_text;
    out << "base " << data.base.size() << "\n";
    for (const auto& [name, rel] : data.base) {
      out << name << " " << rel->arity() << " base_" << name << ".csv\n";
    }
    out << "views " << data.views.size() << "\n";
    for (const auto& [name, rel] : data.views) {
      out << name << " " << rel->arity() << " view_" << name << ".csv\n";
    }
    out << "end\n";
    out.flush();
    if (!out) {
      return Status::Internal("write failed for checkpoint manifest");
    }
  }
  IVM_RETURN_IF_ERROR(SyncPath(tmp / "MANIFEST", /*directory=*/false));
  // Make the staged entries durable before they become the live snapshot.
  IVM_RETURN_IF_ERROR(SyncPath(tmp, /*directory=*/true));
  if (metrics != nullptr) {
    uint64_t staged_bytes = 0;
    for (const fs::directory_entry& entry : fs::directory_iterator(tmp, ec)) {
      if (entry.is_regular_file(ec)) staged_bytes += entry.file_size(ec);
    }
    metrics->counter("checkpoint.bytes_staged")->Add(staged_bytes);
  }
  write_span.Finish();

  // 3. Swap. Crash windows: before the tmp rename, `checkpoint.old` (or the
  // untouched `checkpoint`) is still readable; after it, the new snapshot is.
  TraceSpan swap_span(metrics, "checkpoint.swap");
  fs::remove_all(old, ec);
  if (fs::exists(live)) {
    fs::rename(live, old, ec);
    if (ec) {
      return Status::Internal("cannot stage old checkpoint aside: " +
                              ec.message());
    }
  }
  IVM_FAILPOINT("checkpoint.swap");
  fs::rename(tmp, live, ec);
  if (ec) {
    return Status::Internal("cannot publish checkpoint: " + ec.message());
  }
  // The renames must be durable before the caller truncates the WAL the
  // snapshot absorbed.
  IVM_RETURN_IF_ERROR(SyncPath(root, /*directory=*/true));
  fs::remove_all(old, ec);
  return Status::OK();
}

Status WriteCheckpoint(const std::string& dir, const CheckpointData& data,
                       MetricsRegistry* metrics) {
  CheckpointSource source;
  static_cast<CheckpointMeta&>(source) = data;
  for (const auto& [name, rel] : data.base) source.base.emplace(name, &rel);
  for (const auto& [name, rel] : data.views) source.views.emplace(name, &rel);
  return WriteCheckpoint(dir, source, metrics);
}

Result<CheckpointData> ReadCheckpoint(const std::string& dir) {
  const fs::path root(dir);
  auto live = ReadCheckpointDir(root / "checkpoint");
  if (live.ok()) return live;
  // Swap interrupted? The previous snapshot is still complete.
  auto old = ReadCheckpointDir(root / "checkpoint.old");
  if (old.ok()) return old;
  return Status::NotFound("no usable checkpoint under " + dir + " (" +
                          live.status().message() + ")");
}

}  // namespace ivm
