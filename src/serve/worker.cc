#include "src/serve/worker.h"

#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <cstdlib>

#include <memory>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/runner/cell_spec.h"
#include "src/runner/json_writer.h"
#include "src/runner/sweep_result.h"
#include "src/serve/aggregator.h"
#include "src/serve/cell_json.h"
#include "src/serve/json.h"
#include "src/serve/ndjson.h"
#include "src/serve/result_cache.h"
#include "src/sim/log.h"

namespace bauvm
{

namespace
{

/** One completed cell awaiting the next aggregated flush. */
struct PendingCell {
    std::string digest;
    std::string key;
    CellOutcome outcome;
};

/**
 * Closes every descriptor the child inherited except stdio and its
 * own two pipe ends. Without this, workers hold duplicates of the
 * daemon's client sockets and of *other* workers' pipes, so "close
 * the fd" never reads as EOF anywhere while any worker lives.
 */
void
closeInheritedFds(int keep_a, int keep_b)
{
    DIR *dir = ::opendir("/proc/self/fd");
    if (!dir) {
        // Conservative fallback: close a generous fixed range.
        for (int fd = 3; fd < 1024; ++fd) {
            if (fd != keep_a && fd != keep_b)
                ::close(fd);
        }
        return;
    }
    const int dir_fd = ::dirfd(dir);
    std::vector<int> to_close;
    while (dirent *ent = ::readdir(dir)) {
        const int fd =
            static_cast<int>(std::strtol(ent->d_name, nullptr, 10));
        if (fd > 2 && fd != keep_a && fd != keep_b && fd != dir_fd)
            to_close.push_back(fd);
    }
    ::closedir(dir);
    for (const int fd : to_close)
        ::close(fd);
}

} // namespace

int
runWorkerLoop(int in_fd, int out_fd, const WorkerOptions &opt)
{
    // A dying daemon must read as EPIPE on write, not kill the worker.
    ::signal(SIGPIPE, SIG_IGN);

    const std::string git_rev =
        opt.git_rev.empty() ? gitRev() : opt.git_rev;

    std::unique_ptr<ResultCache> cache;
    if (!opt.cache_dir.empty())
        cache = std::make_unique<ResultCache>(opt.cache_dir);

    bool pipe_ok = true;
    LineBuffer in_buf;
    std::string line;
    while (pipe_ok && readLineBlocking(in_fd, &in_buf, &line)) {
        JsonValue frame;
        std::string error;
        if (!JsonValue::parse(line, &frame, &error)) {
            warn("sweep worker: malformed frame (%s)", error.c_str());
            return 1;
        }
        const std::string op = frame.getString("op");
        if (op == "exit")
            break;
        if (op != "run") {
            warn("sweep worker: unknown op '%s'", op.c_str());
            return 1;
        }
        const JsonValue *cells = frame.find("cells");
        if (!cells || !cells->isArray()) {
            warn("sweep worker: run frame without cells");
            return 1;
        }
        const double soft_timeout_s =
            frame.getDouble("soft_timeout_s", opt.soft_timeout_s);
        if (!validRunReal(soft_timeout_s)) {
            warn("sweep worker: soft_timeout_s must be a finite "
                 "number >= 0");
            return 1;
        }
        std::size_t flush_cells = static_cast<std::size_t>(frame.getU64(
            "flush_cells",
            static_cast<std::uint64_t>(opt.flush_cells)));
        if (flush_cells == 0)
            flush_cells = 1;

        // Completed cells batch up and ship as one "results" frame per
        // flush (and at chunk end, via the aggregator's destructor-as-
        // barrier); their cache stores happen at the same cadence.
        std::vector<PendingCell> pending;
        ResultAggregator agg(
            [&](const std::vector<std::string> &items) {
                JsonWriter results(/*pretty=*/false);
                results.beginObject();
                results.field("op", "results");
                results.beginArray("items");
                for (const std::string &item : items)
                    results.rawValue(item);
                results.endArray();
                results.endObject();
                // Checkpoint before notifying: once the daemon (and
                // through it the client) hears about a cell, that
                // cell must already be durable in the cache, or a
                // crash right after "done" could lose acknowledged
                // work.
                if (cache) {
                    for (const PendingCell &pc : pending) {
                        if (pc.outcome.ok)
                            cache->store(pc.digest, pc.key,
                                         pc.outcome);
                    }
                }
                pending.clear();
                if (!writeLine(out_fd, results.str()))
                    pipe_ok = false;
            },
            flush_cells);

        for (std::size_t i = 0; pipe_ok && i < cells->size(); ++i) {
            const JsonValue &entry = cells->at(i);
            const std::uint64_t index = entry.getU64("index");
            CellSpec spec;
            const JsonValue *spec_json = entry.find("spec");
            if (!spec_json ||
                !parseCellSpec(*spec_json, &spec, &error)) {
                warn("sweep worker: bad cell spec (%s)",
                     error.c_str());
                return 1;
            }

            CellExecArgs args;
            args.workload = spec.workload;
            args.policy = spec.policy;
            args.variant = spec.variant;
            args.job_seed = cellJobSeed(spec);
            args.scale = spec.scale;
            args.config = cellConfig(spec);
            args.soft_timeout_s = soft_timeout_s;
            args.git_rev = git_rev;
            args.tenants = spec.tenants;
            const std::string key =
                cellKey(spec.workload, spec.scale, args.config,
                        git_rev, spec.tenants);
            const std::string digest = digestHex(key);

            // "begin" before the work: the daemon's hard timeout must
            // know which cell a killed worker was actually running.
            JsonWriter begin(/*pretty=*/false);
            begin.beginObject();
            begin.field("op", "begin");
            begin.field("index", index);
            begin.field("digest", digest);
            begin.endObject();
            if (!writeLine(out_fd, begin.str())) {
                pipe_ok = false;
                break;
            }

            CellOutcome outcome = executeCell(args);

            JsonWriter cell_json(/*pretty=*/false);
            writeCellJson(cell_json, outcome,
                          /*with_batch_records=*/false);
            JsonWriter item(/*pretty=*/false);
            item.beginObject();
            item.field("index", index);
            item.rawField("outcome", cell_json.str());
            item.endObject();

            pending.push_back({digest, key, std::move(outcome)});
            agg.add(item.str());
        }
    }
    return pipe_ok ? 0 : 1;
}

WorkerProc
spawnWorker(const WorkerOptions &opt)
{
    int to_child[2];
    int from_child[2];
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0)
        fatal("spawnWorker: pipe() failed");
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("spawnWorker: fork() failed");
    if (pid == 0) {
        ::close(to_child[1]);
        ::close(from_child[0]);
        closeInheritedFds(to_child[0], from_child[1]);
        const int code =
            runWorkerLoop(to_child[0], from_child[1], opt);
        ::_exit(code);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    WorkerProc proc;
    proc.pid = pid;
    proc.to_fd = to_child[1];
    proc.from_fd = from_child[0];
    return proc;
}

} // namespace bauvm
