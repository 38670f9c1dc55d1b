/**
 * @file
 * marlin_perfbench: runs one benchmark workload and prints its
 * metrics, ending with one JSON result line.
 *
 *   marlin_perfbench --workload train-pp24 --seed 1 --seconds 20 \
 *       --trace 0 --out-dir .bench_build/out \
 *       --serve-bin .bench_build/marlin_serve
 *   marlin_perfbench --self-test
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 additionally
 * runs a traced phase and reports the per-layer metrics. Exit code 1
 * when an output check fails, 2 on bad usage.
 */

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hh"
#include "marlin/base/logging.hh"

namespace
{

using perfbench::Options;
using perfbench::Outcome;

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_us", "us"},
};

const MetricDef kPerLayer[] = {
    {"core.select_actions_us", "us"},
    {"core.rollout_us_per_step", "us"},
    {"core.cpu_s.sampling", "s"},
    {"core.cpu_s.target_q", "s"},
    {"core.cpu_s.qp_loss", "s"},
    {"core.cpu_s.action_selection", "s"},
    {"core.cpu_s.other", "s"},
    {"base.serial_ms_per_update", "ms"},
    {"base.pool_busy_share", "ratio"},
    {"base.steady_state_allocs", "count"},
    {"numeric.gemm_gflops", "GFLOP/s"},
    {"numeric.kernel_elements_per_update", "count"},
    {"replay.plan_us", "us"},
    {"replay.gather_us", "us"},
    {"replay.gather_gbps", "GB/s"},
    {"replay.gather_bytes_per_update", "bytes"},
    {"replay.priority_update_us", "us"},
    {"replay.append_us", "us"},
    {"replay.prefill_appends_per_s", "1/s"},
    {"replay.sumtree_depth_per_find", "count"},
    {"replay.round_p99_us", "us"},
    {"latency_samples", "count"},
    {"hw.instructions_per_op", "count"},
    {"hw.cycles_per_op", "count"},
    {"hw.cache_misses_per_op", "count"},
    {"hw.l1d_misses_per_op", "count"},
    {"hw.dtlb_misses_per_op", "count"},
    {"hw.branch_misses_per_op", "count"},
    {"serve.queue_wait_us", "us"},
    {"serve.infer_us", "us"},
    {"serve.server_latency_us", "us"},
    {"serve.wire_us", "us"},
    {"serve.batch_rows", "count"},
    {"serve.cpu_us_per_response", "us"},
    {"serve.rtt_p99_us", "us"},
    {"nn.actor_forward_us", "us"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "marlin_perfbench: %s\n"
                 "usage: marlin_perfbench --workload "
                 "{train-pp24|replay-cn6-per|serve-cn3} --seed N "
                 "--seconds S --trace {0|1} [--out-dir DIR] "
                 "[--serve-bin PATH]\n"
                 "       marlin_perfbench --self-test\n",
                 why);
    std::exit(2);
}

void
mkdirs(const std::string &path)
{
    for (std::size_t i = 1; i <= path.size(); ++i) {
        if (i == path.size() || path[i] == '/')
            ::mkdir(path.substr(0, i).c_str(), 0755);
    }
}

template <std::size_t N>
void
printMetrics(const Outcome &out, const MetricDef (&defs)[N], bool fill,
             std::string &json)
{
    json += "\"metrics\": {";
    bool first = true;
    for (std::size_t i = 0; i < N; ++i) {
        const auto it = out.metrics.find(defs[i].name);
        double v = -1;
        if (it != out.metrics.end()) {
            v = it->second;
        } else if (!fill) {
            continue;
        }
        const bool measured = it != out.metrics.end() && v != -1;
        std::printf("  %-36s %16.6g %-8s%s\n", defs[i].name, v,
                    defs[i].unit,
                    measured ? "" : "  (not measured on this workload)");
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", defs[i].name, v, defs[i].unit);
        json += buf;
        first = false;
    }
    json += "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test")
            return perfbench::runSelfTest();
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::atof(v.c_str());
        } else if (a == "--trace") {
            opt.trace = v == "1";
            have_trace = v == "0" || v == "1";
        } else if (a == "--out-dir") {
            opt.outDir = v;
        } else if (a == "--serve-bin") {
            opt.serveBin = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!have_trace || opt.seconds <= 0)
        usage("--trace must be 0 or 1 and --seconds positive");
    mkdirs(opt.outDir);
    marlin::setLogLevel(marlin::LogLevel::Warn);

    Outcome out;
    if (opt.workload == "train-pp24") {
        perfbench::runTrain(opt, out);
    } else if (opt.workload == "replay-cn6-per") {
        perfbench::runReplay(opt, out);
    } else if (opt.workload == "serve-cn3") {
        if (opt.serveBin.empty())
            usage("serve-cn3 needs --serve-bin");
        perfbench::runServe(opt, out);
    } else {
        usage(("unknown workload '" + opt.workload + "'").c_str());
    }

    for (const std::string &n : out.notes)
        std::printf("# %s\n", n.c_str());
    std::printf("%s seed %llu (%s):\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? "per-layer, traced" : "end-to-end");
    std::string json = std::string("{\"correct\": ") +
                       (out.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) + ", ";
    if (opt.trace) {
        printMetrics(out, kPerLayer, true, json);
    } else {
        printMetrics(out, kEndToEnd, false, json);
    }
    json += "}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return out.correct ? 0 : 1;
}
