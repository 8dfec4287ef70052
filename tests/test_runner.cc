/**
 * @file
 * Tests for the parallel experiment-runner subsystem (src/runner):
 * deterministic seeding, parallel ==
 * serial results, failure capture, progress reporting and the JSON
 * export.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/presets.h"
#include "src/core/system.h"
#include "src/graph/graph_cache.h"
#include "src/runner/job.h"
#include "src/runner/json_writer.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/log.h"

namespace bauvm
{
namespace
{

// ---------------------------------------------------------------------
// Seeding
// ---------------------------------------------------------------------

TEST(JobSeeding, WorkloadSeedIgnoresPolicyAndIsStable)
{
    const std::uint64_t a = deriveWorkloadSeed(1, "BFS-TTC");
    EXPECT_EQ(a, deriveWorkloadSeed(1, "BFS-TTC"));
    EXPECT_NE(a, deriveWorkloadSeed(2, "BFS-TTC"));
    EXPECT_NE(a, deriveWorkloadSeed(1, "PR"));
    EXPECT_NE(a, 0u);
}

TEST(JobSeeding, JobSeedIsUniquePerCell)
{
    std::set<std::uint64_t> seeds;
    for (const char *w : {"BFS-TTC", "PR"}) {
        for (Policy p : {Policy::Baseline, Policy::To, Policy::Ue}) {
            for (const char *v : {"", "x"})
                seeds.insert(deriveJobSeed(1, w, p, v));
        }
    }
    EXPECT_EQ(seeds.size(), 12u);
}

// ---------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.kernels, b.kernels);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.footprint_bytes, b.footprint_bytes);
    EXPECT_EQ(a.capacity_pages, b.capacity_pages);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_DOUBLE_EQ(a.avg_batch_pages, b.avg_batch_pages);
    EXPECT_DOUBLE_EQ(a.avg_batch_time, b.avg_batch_time);
    EXPECT_DOUBLE_EQ(a.avg_handling_time, b.avg_handling_time);
    EXPECT_EQ(a.demand_pages, b.demand_pages);
    EXPECT_EQ(a.prefetched_pages, b.prefetched_pages);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.premature_evictions, b.premature_evictions);
    EXPECT_EQ(a.context_switches, b.context_switches);
    EXPECT_EQ(a.context_switch_cycles, b.context_switch_cycles);
    EXPECT_EQ(a.pcie_h2d_bytes, b.pcie_h2d_bytes);
    EXPECT_EQ(a.pcie_d2h_bytes, b.pcie_d2h_bytes);
    ASSERT_EQ(a.batch_records.size(), b.batch_records.size());
    for (std::size_t i = 0; i < a.batch_records.size(); ++i) {
        EXPECT_EQ(a.batch_records[i].begin, b.batch_records[i].begin);
        EXPECT_EQ(a.batch_records[i].end, b.batch_records[i].end);
        EXPECT_EQ(a.batch_records[i].fault_pages,
                  b.batch_records[i].fault_pages);
    }
}

BenchOptions
tinyOptions(std::size_t jobs)
{
    BenchOptions opt;
    opt.scale = WorkloadScale::Tiny;
    opt.jobs = jobs;
    return opt;
}

TEST(SweepRunner, ParallelMatrixMatchesSerial)
{
    const std::vector<std::string> workloads = {"BFS-TTC", "PR",
                                                "SSSP-TWC"};
    const std::vector<Policy> policies = {Policy::Baseline, Policy::To,
                                          Policy::Ue};

    auto sweep = [&](std::size_t jobs) {
        SweepSpec spec;
        spec.bench = "test";
        spec.workloads = workloads;
        spec.policies = policies;
        spec.opt = tinyOptions(jobs);
        spec.verbose = false;
        return SweepRunner(std::move(spec)).run();
    };
    const SweepResult serial = sweep(1);
    const SweepResult parallel = sweep(4);

    for (const auto &w : workloads) {
        for (Policy p : policies) {
            SCOPED_TRACE(w + "/" + policyName(p));
            const CellOutcome *a = serial.find(w, p);
            const CellOutcome *b = parallel.find(w, p);
            ASSERT_NE(a, nullptr);
            ASSERT_NE(b, nullptr);
            ASSERT_TRUE(a->ok) << a->error;
            ASSERT_TRUE(b->ok) << b->error;
            expectSameResult(a->result, b->result);
        }
    }
}

TEST(SweepRunner, FailingJobIsCapturedWithoutAbortingTheSweep)
{
    SweepSpec spec;
    spec.bench = "test";
    // "NOPE" makes WorkloadRegistry::create() fatal() inside the
    // job; the runner
    // must capture it and still run the valid cell.
    spec.workloads = {"NOPE", "BFS-TTC"};
    spec.policies = {Policy::Baseline};
    spec.opt = tinyOptions(2);
    spec.verbose = false;

    SweepRunner runner(spec);
    const SweepResult sweep = runner.run();

    ASSERT_EQ(sweep.cells.size(), 2u);
    EXPECT_EQ(sweep.failedCells(), 1u);

    const CellOutcome *bad = sweep.find("NOPE", Policy::Baseline);
    ASSERT_NE(bad, nullptr);
    EXPECT_FALSE(bad->ok);
    EXPECT_NE(bad->error.find("unknown workload"), std::string::npos)
        << bad->error;

    const CellOutcome *good = sweep.find("BFS-TTC", Policy::Baseline);
    ASSERT_NE(good, nullptr);
    EXPECT_TRUE(good->ok);
    EXPECT_GT(good->result.cycles, 0u);
}

TEST(SweepRunner, ProgressFiresExactlyOncePerCell)
{
    SweepSpec spec;
    spec.bench = "test";
    spec.workloads = {"BFS-TTC", "PR"};
    spec.policies = {Policy::Baseline, Policy::Ue};
    spec.opt = tinyOptions(4);
    spec.verbose = false;

    SweepRunner runner(spec);
    ASSERT_EQ(runner.cellCount(), 4u);

    std::vector<std::size_t> dones;
    std::set<std::string> cells_seen;
    runner.setProgress([&](const CellOutcome &cell, std::size_t done,
                           std::size_t total) {
        EXPECT_EQ(total, 4u);
        dones.push_back(done);
        cells_seen.insert(cell.workload + "/" + policyName(cell.policy));
    });
    const SweepResult sweep = runner.run();

    EXPECT_EQ(sweep.cells.size(), 4u);
    // One callback per cell, serialized: done counts 1..total with no
    // duplicates or gaps.
    EXPECT_EQ(dones, (std::vector<std::size_t>{1, 2, 3, 4}));
    EXPECT_EQ(cells_seen.size(), 4u);
}

TEST(SweepRunner, SoftTimeoutMarksCellFailed)
{
    SweepSpec spec;
    spec.bench = "test";
    spec.workloads = {"BFS-TTC"};
    spec.policies = {Policy::Baseline};
    spec.opt = tinyOptions(1);
    spec.opt.timeout_s = 1e-9; // everything exceeds this
    spec.verbose = false;

    SweepRunner runner(spec);
    const SweepResult sweep = runner.run();
    ASSERT_EQ(sweep.cells.size(), 1u);
    EXPECT_FALSE(sweep.cells[0].ok);
    EXPECT_TRUE(sweep.cells[0].timed_out);
    EXPECT_NE(sweep.cells[0].error.find("soft timeout"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

TEST(JsonWriter, EscapesAndNests)
{
    JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.field("s", "a\"b\\c\nd");
    w.field("b", true);
    w.field("u", std::uint64_t{42});
    w.field("d", 1.5);
    w.beginArray("a");
    w.value(std::uint64_t{1});
    w.value("x");
    w.endArray();
    w.endObject();
    EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\",\"b\":true,"
                       "\"u\":42,\"d\":1.5,\"a\":[1,\"x\"]}");
}

TEST(SweepResult, JsonExportCarriesSchemaAndCells)
{
    SweepSpec spec;
    spec.bench = "test_export";
    spec.workloads = {"BFS-TTC"};
    spec.policies = {Policy::Baseline};
    spec.opt = tinyOptions(1);
    spec.verbose = false;

    SweepRunner runner(spec);
    const SweepResult sweep = runner.run();
    const std::string json = sweep.toJson();

    EXPECT_NE(json.find("\"schema\": \"bauvm.sweep/1.3\""),
              std::string::npos);
    EXPECT_NE(json.find("\"bench\": \"test_export\""),
              std::string::npos);
    EXPECT_NE(json.find("\"workload\": \"BFS-TTC\""),
              std::string::npos);
    EXPECT_NE(json.find("\"cycles\": "), std::string::npos);
    // Memory data path counters added in schema minor /1.1.
    EXPECT_NE(json.find("\"translations\": "), std::string::npos);
    EXPECT_NE(json.find("\"tlb_hit_rate\": "), std::string::npos);
    EXPECT_NE(json.find("\"faults_per_kcycle\": "), std::string::npos);

    ASSERT_EQ(sweep.cells.size(), 1u);
    ASSERT_TRUE(sweep.cells[0].ok);
    const RunResult &r = sweep.cells[0].result;
    EXPECT_GT(r.translations, 0u);
    EXPECT_GE(r.tlb_hit_rate, 0.0);
    EXPECT_LE(r.tlb_hit_rate, 1.0);
    EXPECT_GE(r.faults_per_kcycle, 0.0);

    const std::string path = ::testing::TempDir() + "sweep_test.json";
    EXPECT_TRUE(sweep.writeJson(path));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Cross-policy graph memoization
// ---------------------------------------------------------------------

TEST(SweepRunner, GraphCacheReusesBuildsAndStaysTransparent)
{
    SweepSpec spec;
    spec.bench = "cache_check";
    spec.workloads = {"BFS-TTC"};
    spec.policies = {Policy::Baseline, Policy::To};
    spec.opt.scale = WorkloadScale::Tiny;
    spec.opt.seed = 7;
    spec.opt.ratio = 0.5;
    spec.opt.jobs = 2;
    spec.verbose = false;

    auto &cache = GraphBuildCache::instance();
    const std::uint64_t builds_before = cache.builds();
    const std::uint64_t hits_before = cache.hits();
    SweepRunner runner(spec);
    const SweepResult sweep = runner.run();
    // Two policy cells share one workload build: 1 build, 1 reuse.
    EXPECT_EQ(cache.builds() - builds_before, 1u);
    EXPECT_EQ(cache.hits() - hits_before, 1u);

    // Memoization must be invisible in results: a cached cell equals
    // an uncached standalone run of the same derived config.
    const CellOutcome *cell = sweep.find("BFS-TTC", Policy::To);
    ASSERT_NE(cell, nullptr);
    SimConfig config = applyPolicy(
        paperConfig(spec.opt.ratio, deriveWorkloadSeed(7, "BFS-TTC")),
        Policy::To);
    const RunResult standalone =
        runWorkload(config, "BFS-TTC", WorkloadScale::Tiny);
    EXPECT_EQ(cell->result.cycles, standalone.cycles);
    EXPECT_EQ(cell->result.instructions, standalone.instructions);
    EXPECT_EQ(cell->result.evictions, standalone.evictions);
}

// ---------------------------------------------------------------------
// Abort capture
// ---------------------------------------------------------------------

TEST(AbortCapture, FatalThrowsOnlyWhileGuardActive)
{
    EXPECT_FALSE(ScopedAbortCapture::active());
    {
        ScopedAbortCapture guard;
        EXPECT_TRUE(ScopedAbortCapture::active());
        bool threw = false;
        try {
            fatal("synthetic failure %d", 7);
        } catch (const SimAbort &e) {
            threw = true;
            EXPECT_FALSE(e.isPanic());
            EXPECT_NE(std::string(e.what()).find("synthetic failure 7"),
                      std::string::npos);
        }
        EXPECT_TRUE(threw);

        try {
            panic("synthetic panic");
        } catch (const SimAbort &e) {
            EXPECT_TRUE(e.isPanic());
        }
    }
    EXPECT_FALSE(ScopedAbortCapture::active());
}

} // namespace
} // namespace bauvm
