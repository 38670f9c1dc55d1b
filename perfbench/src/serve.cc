/**
 * @file
 * serve-cn3: marlin_serve as a subprocess, serving a CN-3 MADDPG
 * checkpoint this benchmark writes. Load comes from this process
 * over TCP as a closed loop that keeps a fixed window of pipelined
 * requests outstanding, so the micro-batcher fills batches instead
 * of waiting on its deadline. Agent ids go
 * round-robin; observations come from a seeded pool whose reference
 * actions are computed here in double precision from the saved
 * weights.
 */

#include <arpa/inet.h>
#include <fcntl.h>
#include <sched.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "marlin/core/checkpoint.hh"
#include "marlin/core/maddpg.hh"
#include "marlin/env/environment.hh"
#include "marlin/obs/trace.hh"
#include "marlin/replay/uniform_sampler.hh"
#include "marlin/serve/client.hh"
#include "marlin/serve/policy.hh"

namespace perfbench
{

namespace
{

using namespace marlin;

constexpr std::size_t kAgents = 3;
// One pinned connection keeping one full batch in flight saturates
// the single-threaded server. Three unpinned connections of 16 (or
// two pinned of 32) kept more vCPUs busy and their throughput spread
// 28-31% across ten runs; this shape reads within a few percent.
constexpr std::size_t kConnections = 1;
constexpr std::size_t kWindow = 32;
constexpr std::size_t kBatchMax = 32;
constexpr std::size_t kPool = 512;
constexpr std::size_t kSetups = 15;
constexpr std::uint64_t kTracedPerConnection = 40000;

/** Plain double-precision copy of one actor MLP. */
struct RefActor
{
    struct Layer
    {
        std::size_t in = 0, out = 0;
        std::vector<double> w; ///< (in, out), row-major.
        std::vector<double> b;
    };
    std::vector<Layer> layers;
    nn::Activation hidden = nn::Activation::ReLU;
    nn::Activation output = nn::Activation::Identity;

    static double
    act(nn::Activation a, double v)
    {
        switch (a) {
          case nn::Activation::ReLU:
            return v > 0 ? v : 0;
          case nn::Activation::Tanh:
            return std::tanh(v);
          default:
            return v;
        }
    }

    std::vector<double>
    forward(const Real *obs) const
    {
        std::vector<double> x(obs, obs + layers.front().in);
        for (std::size_t l = 0; l < layers.size(); ++l) {
            const Layer &L = layers[l];
            std::vector<double> y(L.b);
            for (std::size_t i = 0; i < L.in; ++i)
                for (std::size_t j = 0; j < L.out; ++j)
                    y[j] += x[i] * L.w[i * L.out + j];
            const bool last = l + 1 == layers.size();
            for (double &v : y)
                v = act(last ? output : hidden, v);
            x = std::move(y);
        }
        return x;
    }
};

RefActor
copyActor(const nn::Mlp &mlp)
{
    RefActor ref;
    ref.hidden = mlp.config().hiddenActivation;
    ref.output = mlp.config().outputActivation;
    const std::vector<const nn::Param *> params = mlp.params();
    for (std::size_t p = 0; p + 1 < params.size(); p += 2) {
        const numeric::Matrix &w = params[p]->value;
        const numeric::Matrix &b = params[p + 1]->value;
        RefActor::Layer L;
        L.in = w.rows();
        L.out = w.cols();
        L.w.assign(w.data(), w.data() + w.rows() * w.cols());
        L.b.assign(b.data(), b.data() + b.cols());
        ref.layers.push_back(std::move(L));
    }
    return ref;
}

std::unique_ptr<core::MaddpgTrainer>
makeTrainer(std::uint64_t seed, std::vector<std::size_t> &dims,
            std::size_t &act_dim)
{
    const auto environment =
        env::makeCooperativeNavigationEnv(kAgents, seed);
    dims.clear();
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        dims.push_back(environment->obsDim(i));
    act_dim = environment->actionDim();
    core::TrainConfig config;
    config.seed = seed;
    return std::make_unique<core::MaddpgTrainer>(
        dims, act_dim, config,
        [] { return std::make_unique<replay::UniformSampler>(); });
}

/** The marlin_serve child process. */
struct Server
{
    pid_t pid = -1;
    std::uint16_t port = 0;
    std::uint16_t metricsPort = 0;

    Server() = default;
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;
    ~Server() { stop(); }

    /** SIGTERM, then wait; SIGKILL if it does not exit in 10 s. */
    void
    stop()
    {
        if (pid <= 0)
            return;
        ::kill(pid, SIGTERM);
        int status = 0;
        for (int i = 0; i < 1000; ++i) {
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;
                return;
            }
            ::usleep(10000);
        }
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        pid = -1;
    }
};

int
readPortFile(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    if (!std::getline(in, line) || in.eof())
        return -1; // Missing, or the newline is not written yet.
    return std::atoi(line.c_str());
}

/** Pin the calling thread to one CPU (modulo the CPU count). */
void
pinToCpu(std::size_t cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    CPU_SET(static_cast<int>(cpu % cpus), &set);
    ::sched_setaffinity(0, sizeof(set), &set);
}

/** Spawn marlin_serve and wait for both of its ports. */
bool
spawnServer(const Options &opt, const std::string &ckpt_dir, Server &srv,
            std::string &why)
{
    const std::string port_file = opt.outDir + "/serve.port";
    const std::string metrics_file = opt.outDir + "/serve.metrics_port";
    const std::string log_file = opt.outDir + "/serve.log";
    ::unlink(port_file.c_str());
    ::unlink(metrics_file.c_str());
    std::vector<std::string> args = {
        opt.serveBin,     "--checkpoint-dir",    ckpt_dir,
        "--task",         "cn",
        "--agents",       std::to_string(kAgents),
        "--port",         "0",
        "--port-file",    port_file,
        "--metrics-port", "0",
        "--metrics-port-file", metrics_file,
        "--batch-max",    std::to_string(kBatchMax),
        "--log-level",    "warn"};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        why = "fork failed";
        return false;
    }
    if (pid == 0) {
        pinToCpu(0);
        const int fd = ::open(log_file.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    srv.pid = pid;
    for (int i = 0; i < 30000; ++i) {
        const int port = readPortFile(port_file);
        const int mport = readPortFile(metrics_file);
        if (port > 0 && mport > 0) {
            srv.port = static_cast<std::uint16_t>(port);
            srv.metricsPort = static_cast<std::uint16_t>(mport);
            return true;
        }
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            srv.pid = -1;
            why = "marlin_serve exited during start-up (see " +
                  log_file + ")";
            return false;
        }
        ::usleep(200);
    }
    why = "marlin_serve did not publish its port";
    return false;
}

/** Server CPU seconds (utime + stime) from /proc/<pid>/stat. */
double
cpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t close_paren = text.rfind(')');
    if (close_paren == std::string::npos)
        return -1;
    std::istringstream fields(text.substr(close_paren + 2));
    std::string f;
    double utime = 0, stime = 0;
    // Fields after the command: state is field 3; utime 14, stime 15.
    for (int i = 3; i <= 15 && (fields >> f); ++i) {
        if (i == 14)
            utime = std::atof(f.c_str());
        if (i == 15)
            stime = std::atof(f.c_str());
    }
    return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/** GET /metrics; series name (with labels) -> value. */
std::map<std::string, double>
scrape(std::uint16_t port)
{
    std::map<std::string, double> out;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return out;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    std::string body;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) ==
        0) {
        const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
        if (::send(fd, req, sizeof(req) - 1, MSG_NOSIGNAL) > 0) {
            char buf[65536];
            ssize_t n;
            while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
                body.append(buf, static_cast<std::size_t>(n));
        }
    }
    ::close(fd);
    std::istringstream lines(body);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#' || line.rfind("serve_", 0) != 0)
            continue;
        const std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos)
            continue;
        out[line.substr(0, sp)] = std::atof(line.c_str() + sp + 1);
    }
    return out;
}

double
seriesDelta(const std::map<std::string, double> &before,
            const std::map<std::string, double> &after,
            const std::string &key)
{
    const auto a = after.find(key);
    const auto b = before.find(key);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
}

/**
 * Mean of a histogram's observations between two scrapes, from its
 * _sum and _count series. The serving histograms' lowest bucket is
 * 50 us, so a bucket-interpolated median of sub-50 us times would
 * read about 25 us whatever the server did; the mean is exact.
 */
double
histogramMean(const std::map<std::string, double> &before,
              const std::map<std::string, double> &after,
              const std::string &name)
{
    const double n = seriesDelta(before, after, name + "_count");
    return n > 0 ? seriesDelta(before, after, name + "_sum") / n : -1;
}

/** Seeded observations and their reference actions per agent. */
struct Inputs
{
    std::vector<std::vector<Real>> obs;        ///< [agent][pool*dim]
    std::vector<std::vector<double>> expected; ///< [agent][pool*act]
    std::vector<std::size_t> dims;
    std::size_t actDim = 0;
};

/** Per-connection tallies of one load phase. */
struct ConnStats
{
    std::vector<float> rttUs;
    std::uint64_t sent = 0;
    /** OK responses received in each whole second of the phase. */
    std::vector<std::uint64_t> okPerSecond;
    std::uint64_t notOk = 0;
    std::uint64_t lost = 0;
    std::string mismatch;
};

/**
 * One connection's closed loop. Each recv drains every complete
 * response it brought; their replacements then go out in a single
 * send, so the client spends one syscall per burst, not per request.
 */
void
connectionLoop(const Inputs &in, std::uint16_t port, std::size_t conn,
               std::uint64_t start_ns, std::uint64_t stop_ns, bool traced,
               ConnStats &st)
{
    pinToCpu(conn + 1);
    serve::BlockingClient client;
    if (!client.connect("127.0.0.1", port, 2000)) {
        st.lost = 1;
        st.sent = 1;
        return;
    }
    serve::FrameDecoder decoder(serve::responseMagic, 1 << 20);
    std::vector<std::byte> frames;
    std::vector<Real> actions(in.actDim);
    std::vector<char> buf(1 << 16);
    std::uint64_t send_ns[kWindow];
    std::size_t agent_of[kWindow], obs_of[kWindow];
    std::uint64_t seq = 0, received = 0;
    // Encode request number seq (appending) and remember its slot.
    auto encode_next = [&](std::uint64_t now) {
        const std::size_t agent = (seq + conn) % kAgents;
        const std::size_t idx = (seq * 7 + conn * 131) % kPool;
        const std::size_t dim = in.dims[agent];
        serve::encodeRequest(frames, static_cast<std::uint16_t>(agent),
                             in.obs[agent].data() + idx * dim, dim);
        const std::size_t slot = seq % kWindow;
        agent_of[slot] = agent;
        obs_of[slot] = idx;
        send_ns[slot] = now;
        ++seq;
        ++st.sent;
    };
    const std::uint64_t start = nowNs();
    for (std::size_t i = 0; i < kWindow; ++i)
        encode_next(start);
    if (!client.sendRaw(frames.data(), frames.size())) {
        st.lost += seq;
        return;
    }
    while (received < seq) {
        const ssize_t n = ::recv(client.fd(), buf.data(), buf.size(), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            st.lost += seq - received;
            return;
        }
        decoder.feed(buf.data(), static_cast<std::size_t>(n));
        const std::uint64_t now = nowNs();
        frames.clear();
        serve::ResponseView view;
        serve::FrameDecoder::Result r;
        while ((r = decoder.next(view)) ==
               serve::FrameDecoder::Result::Frame) {
            const std::size_t slot = received % kWindow;
            ++received;
            const std::uint64_t rtt = now - send_ns[slot];
            st.rttUs.push_back(
                static_cast<float>(static_cast<double>(rtt) * 1e-3));
            // The first spans per connection go to the Chrome trace;
            // past the ring's capacity they would only be counted.
            if (traced && received <= kTracedPerConnection)
                obs::recordSpan("request", "bench", send_ns[slot], rtt);
            if (view.status != serve::Status::Ok ||
                view.actionCount() != in.actDim) {
                ++st.notOk;
            } else {
                const std::uint64_t second = (now - start_ns) / 1000000000;
                if (second < st.okPerSecond.size())
                    ++st.okPerSecond[second];
                if (st.mismatch.empty()) {
                    view.copyActions(actions.data());
                    const std::size_t a = agent_of[slot];
                    st.mismatch = checkAction(
                        actions.data(),
                        in.expected[a].data() + obs_of[slot] * in.actDim,
                        in.actDim);
                }
            }
            if (now < stop_ns)
                encode_next(now);
        }
        if (serve::FrameDecoder::isError(r)) {
            st.lost += seq - received;
            return;
        }
        if (!frames.empty() &&
            !client.sendRaw(frames.data(), frames.size())) {
            st.lost += seq - received;
            return;
        }
    }
}

struct LoadResult
{
    double throughput = 0;
    std::vector<double> perSecond;
    std::vector<double> rttUs;
    std::uint64_t sent = 0, failed = 0;
    std::string mismatch;
};

LoadResult
runLoad(const Inputs &in, std::uint16_t port, std::size_t conns,
        double seconds, bool traced)
{
    const auto whole_seconds =
        std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
    std::vector<ConnStats> stats(conns);
    for (ConnStats &s : stats) {
        s.rttUs.reserve(static_cast<std::size_t>(seconds * 400000) + 1024);
        s.okPerSecond.assign(whole_seconds, 0);
    }
    const std::uint64_t start = nowNs();
    const std::uint64_t stop =
        start + static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns; ++c)
        threads.emplace_back(connectionLoop, std::cref(in), port, c, start,
                             stop, traced, std::ref(stats[c]));
    for (std::thread &t : threads)
        t.join();
    LoadResult r;
    std::vector<double> per_second(whole_seconds, 0.0);
    for (const ConnStats &s : stats) {
        r.rttUs.insert(r.rttUs.end(), s.rttUs.begin(), s.rttUs.end());
        r.sent += s.sent;
        r.failed += s.notOk + s.lost;
        for (std::size_t i = 0; i < whole_seconds; ++i)
            per_second[i] += static_cast<double>(s.okPerSecond[i]);
        if (r.mismatch.empty())
            r.mismatch = s.mismatch;
    }
    // Median over whole seconds: a second in which the host stalled
    // this VM does not move the figure, a slower server moves every
    // second.
    r.throughput = median(per_second);
    r.perSecond = per_second;
    return r;
}

/** Time one in-process ServePolicy::forward of @p rows rows. */
double
actorForwardUs(core::CtdeTrainerBase &trainer, const Inputs &in,
               std::size_t rows)
{
    serve::ServePolicy policy;
    policy.adoptFrom(trainer);
    numeric::Matrix obs(rows, in.dims[0]), out;
    for (std::size_t r = 0; r < rows; ++r)
        std::memcpy(obs.row(r), in.obs[0].data() + (r % kPool) * in.dims[0],
                    in.dims[0] * sizeof(Real));
    std::vector<double> us;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t t0 = nowNs();
        policy.forward(0, obs, out);
        us.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
    }
    return median(us);
}

} // namespace

void
runServe(const Options &opt, Outcome &out)
{
    const std::size_t conns = std::min<std::size_t>(
        kConnections, std::max(1u, std::thread::hardware_concurrency()));
    const std::string ckpt_dir = opt.outDir + "/serve-ckpt";
    ::mkdir(ckpt_dir.c_str(), 0755);

    // The checkpoint the server restores, then its reference weights
    // read back from disk into a differently seeded trainer.
    Inputs in;
    {
        auto trainer = makeTrainer(opt.seed, in.dims, in.actDim);
        core::RunState state;
        state.trainer = trainer.get();
        const core::CkptResult saved = core::saveRotating(ckpt_dir, state);
        out.check(static_cast<bool>(saved), "cannot write the checkpoint");
        if (!saved)
            return;
    }
    auto reference = makeTrainer(opt.seed + 1, in.dims, in.actDim);
    {
        core::RunState state;
        state.trainer = reference.get();
        const core::CkptResult loaded =
            core::loadRunFile(core::latestCheckpointPath(ckpt_dir), state);
        out.check(static_cast<bool>(loaded), "cannot read the checkpoint");
        if (!loaded)
            return;
    }
    Rng rng(opt.seed * 0x51ed27ULL + 3);
    for (std::size_t a = 0; a < kAgents; ++a) {
        const RefActor ref = copyActor(reference->networks(a).actor);
        std::vector<Real> pool(kPool * in.dims[a]);
        for (Real &v : pool)
            v = static_cast<Real>(rng.uniform(-1.0, 1.0));
        std::vector<double> expected;
        for (std::size_t k = 0; k < kPool; ++k) {
            const std::vector<double> y =
                ref.forward(pool.data() + k * in.dims[a]);
            expected.insert(expected.end(), y.begin(), y.end());
        }
        in.obs.push_back(std::move(pool));
        in.expected.push_back(std::move(expected));
    }

    // Set-up: spawn, restore, first response; several times.
    std::vector<double> setups;
    Server srv;
    for (std::size_t k = 0; k < kSetups; ++k) {
        srv.stop();
        const std::uint64_t t0 = nowNs();
        std::string why;
        if (!spawnServer(opt, ckpt_dir, srv, why)) {
            out.check(false, why);
            return;
        }
        serve::BlockingClient client;
        std::vector<Real> actions;
        serve::Status status = serve::Status::BadFrame;
        const bool ok =
            client.connect("127.0.0.1", srv.port, 5000) &&
            client.request(0, in.obs[0].data(), in.dims[0], actions,
                           status) &&
            status == serve::Status::Ok;
        setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        out.check(ok, "first response from marlin_serve was not OK");
        if (!ok)
            return;
        const std::string match =
            checkAction(actions.data(), in.expected[0].data(), in.actDim);
        out.check(match.empty(), "first response: " + match);
    }
    out.set("setup_s", median(setups));

    const double cpu0 = cpuSeconds(srv.pid);
    const LoadResult plain =
        runLoad(in, srv.port, conns, opt.seconds, false);
    const double cpu1 = cpuSeconds(srv.pid);
    out.attempted += plain.sent;
    out.failed += plain.failed;
    out.check(plain.mismatch.empty(), plain.mismatch);
    out.set("throughput_per_s", plain.throughput);
    out.set("latency_p50_us", median(plain.rttUs));
    {
        std::string line = "responses per second:";
        for (double v : plain.perSecond)
            line += " " + std::to_string(static_cast<long>(v));
        out.notes.push_back(line);
    }
    out.notes.push_back("serve-cn3: " + std::to_string(plain.sent) +
                        " requests over " + std::to_string(conns) +
                        " connection(s), window " +
                        std::to_string(kWindow));

    if (opt.trace) {
        obs::TraceRing::enable(1 << 17);
        const auto before = scrape(srv.metricsPort);
        const LoadResult traced =
            runLoad(in, srv.port, conns, opt.seconds, true);
        const auto after = scrape(srv.metricsPort);
        out.attempted += traced.sent;
        out.failed += traced.failed;
        out.check(traced.mismatch.empty(), traced.mismatch);
        out.check(!after.empty(), "could not scrape /metrics");

        const double server_us =
            histogramMean(before, after, "serve_request_latency_us");
        out.set("serve.queue_wait_us",
                histogramMean(before, after,
                              "serve_request_queue_wait_us"));
        out.set("serve.infer_us",
                histogramMean(before, after, "serve_batch_infer_us"));
        out.set("serve.server_latency_us", server_us);
        double rtt_sum = 0;
        for (double v : traced.rttUs)
            rtt_sum += v;
        out.set("serve.wire_us",
                rtt_sum / static_cast<double>(traced.rttUs.size()) -
                    server_us);
        const double responses =
            seriesDelta(before, after, "serve_responses");
        const double batches =
            seriesDelta(before, after, "serve_batch_infer_us_count");
        const double rows = responses / std::max(batches, 1.0);
        out.set("serve.batch_rows", rows);
        out.set("serve.cpu_us_per_response",
                (cpu1 - cpu0) * 1e6 /
                    static_cast<double>(plain.rttUs.size()));
        out.set("serve.rtt_p99_us", quantile(traced.rttUs, 0.99));
        out.set("latency_samples",
                static_cast<double>(traced.rttUs.size()));
        // The batcher runs one forward per agent present in a flush.
        const auto per_agent = static_cast<std::size_t>(
            std::max(1.0, std::round(rows / kAgents)));
        out.set("nn.actor_forward_us",
                actorForwardUs(*reference, in, per_agent));
        out.set("trace.overhead_pct",
                (plain.throughput - traced.throughput) /
                    plain.throughput * 100);
        const std::string path = opt.outDir + "/serve-cn3.trace.json";
        std::string err;
        out.check(obs::exportTrace(path, &err), "trace export: " + err);
        obs::TraceRing::disable();
        out.notes.push_back("trace: " + path);
    }

    out.set("peak_rss_mb", peakRssMb(srv.pid));
    srv.stop();
}

} // namespace perfbench
