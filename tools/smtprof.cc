/**
 * @file
 * smtprof: a sampling CPU profiler for the simulator that needs no
 * perf, valgrind or gprof.
 *
 * Runs every point of the given specs, one after another on this
 * thread, under an ITIMER_PROF timer. Each SIGPROF records the
 * interrupted PC plus the caller chain found by walking saved frame
 * pointers, bounded to this thread's stack, and tags the sample with
 * the phase it fell in: "setup" (spec parsing and Simulator
 * construction) or "simulate" (warmup plus measurement). The samples
 * file is symbolized and summarized by tools/profile_report.py.
 *
 * Call chains need a build with frame pointers
 * (-fno-omit-frame-pointer); without them only the sampled PC, and
 * so only the flat profile, is reliable.
 *
 * Usage: smtprof [options] <spec.json>...
 */

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include <link.h>
#include <pthread.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include "sim/executor.hh"
#include "sim/simulator.hh"
#include "sim/sweep_spec.hh"

using namespace smt;

namespace
{

constexpr unsigned maxDepth = 64;

/** Requested samples per CPU-second; the kernel's timer tick may cap
 *  the rate actually delivered. */
constexpr unsigned sampleHz = 1000;

/** Sample storage: 64 MiB holds about 200 CPU-seconds of samples at
 *  full stack depth. */
constexpr std::size_t bufferWords = std::size_t(64) << 17;

enum Phase : std::uint64_t
{
    PhaseSetup = 0,
    PhaseSimulate = 1,
};

/**
 * Sample storage, written only by the signal handler: a flat word
 * array of records [phase, depth, pc, caller...], preallocated so
 * the handler never allocates.
 */
struct SampleBuffer
{
    std::uint64_t *words = nullptr;
    std::size_t capacity = 0;
    volatile std::size_t used = 0;
    volatile std::size_t dropped = 0;
    volatile std::uint64_t phase = PhaseSetup;
    std::uintptr_t stackLo = 0;
    std::uintptr_t stackHi = 0;
};

SampleBuffer buffer;

void
interruptedRegs(const void *uctx, std::uintptr_t &pc, std::uintptr_t &sp,
                std::uintptr_t &fp)
{
    const auto *uc = static_cast<const ucontext_t *>(uctx);
#if defined(__x86_64__)
    pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
    sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
    fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
    pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
    sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
    fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#else
    (void)uc;
    pc = sp = fp = 0;
#endif
}

// Not instrumented: under a sanitizer build a walk that starts from a
// frame register holding a plain value may read stack words the
// sanitizer has poisoned; the bounds checks keep it inside the stack.
__attribute__((no_sanitize("address", "undefined"))) void
onProf(int, siginfo_t *, void *uctx)
{
    std::uintptr_t pc, sp, fp;
    interruptedRegs(uctx, pc, sp, fp);
    const std::uintptr_t lo = std::max(sp, buffer.stackLo);

    std::uint64_t frames[maxDepth];
    unsigned depth = 0;
    frames[depth++] = pc;
    // Frame layout on both targets: [fp] = caller's fp, [fp + 8] =
    // return address. Follow the chain only while it stays inside
    // the live part of this thread's stack (between the interrupted
    // stack pointer and the stack base) and moves towards the base.
    while (depth < maxDepth && fp % sizeof(void *) == 0 && fp >= lo &&
           fp + 16 <= buffer.stackHi) {
        const auto *frame = reinterpret_cast<const std::uintptr_t *>(fp);
        std::uintptr_t next = frame[0];
        std::uintptr_t ret = frame[1];
        if (ret == 0)
            break;
        frames[depth++] = ret;
        if (next <= fp)
            break;
        fp = next;
    }

    std::size_t used = buffer.used;
    if (used + 2 + depth > buffer.capacity) {
        buffer.dropped = buffer.dropped + 1;
        return;
    }
    buffer.words[used] = buffer.phase;
    buffer.words[used + 1] = depth;
    std::memcpy(&buffer.words[used + 2], frames,
                depth * sizeof(std::uint64_t));
    buffer.used = used + 2 + depth;
}

/** This thread's stack bounds, for the frame-pointer walk. */
void
findStack()
{
    pthread_attr_t attr;
    void *addr = nullptr;
    std::size_t size = 0;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
        pthread_attr_getstack(&attr, &addr, &size);
        pthread_attr_destroy(&attr);
    }
    buffer.stackLo = reinterpret_cast<std::uintptr_t>(addr);
    buffer.stackHi = buffer.stackLo + size;
}

/** Load bias and address range of the main executable. */
struct ExeMap
{
    std::uintptr_t bias = 0;
    std::uintptr_t lo = UINTPTR_MAX;
    std::uintptr_t hi = 0;
};

int
findExe(dl_phdr_info *info, std::size_t, void *data)
{
    // The first object dl_iterate_phdr reports is the executable.
    auto *exe = static_cast<ExeMap *>(data);
    exe->bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const auto &ph = info->dlpi_phdr[i];
        if (ph.p_type != PT_LOAD)
            continue;
        exe->lo = std::min<std::uintptr_t>(exe->lo,
                                           info->dlpi_addr + ph.p_vaddr);
        exe->hi = std::max<std::uintptr_t>(
            exe->hi, info->dlpi_addr + ph.p_vaddr + ph.p_memsz);
    }
    return 1;
}

void
startTimer()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);

    itimerval tv;
    tv.it_interval.tv_sec = 0;
    tv.it_interval.tv_usec = static_cast<suseconds_t>(1'000'000 / sampleHz);
    tv.it_value = tv.it_interval;
    setitimer(ITIMER_PROF, &tv, nullptr);
}

void
stopTimer()
{
    itimerval tv;
    std::memset(&tv, 0, sizeof(tv));
    setitimer(ITIMER_PROF, &tv, nullptr);
    signal(SIGPROF, SIG_IGN);
}

/**
 * Write the samples file: a header naming the executable and its
 * load bias, then one line per sample, "<phase> <pc> <ret>...", with
 * addresses in hex relative to the executable's load bias (addresses
 * outside the executable, e.g. in libstdc++, are written as "-").
 */
bool
writeSamples(const std::string &path, const ExeMap &exe)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "smtprof: cannot write %s: %s\n",
                     path.c_str(), std::strerror(errno));
        return false;
    }
    char self[4096];
    ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
    self[n > 0 ? n : 0] = '\0';
    std::fprintf(out, "# smtprof v1\n# exe %s\n", self);
    std::size_t i = 0;
    while (i < buffer.used) {
        std::uint64_t phase = buffer.words[i];
        std::uint64_t depth = buffer.words[i + 1];
        std::fputs(phase == PhaseSimulate ? "simulate" : "setup", out);
        for (std::uint64_t d = 0; d < depth; ++d) {
            std::uintptr_t a = buffer.words[i + 2 + d];
            if (a >= exe.lo && a < exe.hi)
                std::fprintf(out, " %lx",
                             static_cast<unsigned long>(a - exe.bias));
            else
                std::fputs(" -", out);
        }
        std::fputc('\n', out);
        i += 2 + depth;
    }
    return std::fclose(out) == 0;
}

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: smtprof [options] <spec.json>...\n"
        "\n"
        "Runs every point of the specs on this thread under a\n"
        "SIGPROF sampler and writes the samples for\n"
        "tools/profile_report.py.\n"
        "\n"
        "options:\n"
        "  --out PATH     samples file (default smtprof.samples)\n"
        "  -h, --help     show this help\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "smtprof.samples";
    std::vector<std::string> specs;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "smtprof: %s needs a value\n",
                             a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "-h" || a == "--help") {
            usage(stdout);
            return 0;
        } else if (a == "--out") {
            out_path = value();
        } else if (!a.empty() && a[0] == '-') {
            std::fprintf(stderr, "smtprof: unknown option %s\n",
                         a.c_str());
            usage(stderr);
            return 2;
        } else {
            specs.push_back(a);
        }
    }
    if (specs.empty()) {
        usage(stderr);
        return 2;
    }

    std::vector<std::uint64_t> storage(bufferWords);
    buffer.words = storage.data();
    buffer.capacity = storage.size();
    findStack();
    ExeMap exe;
    dl_iterate_phdr(findExe, &exe);

    unsigned points = 0;
    startTimer();
    try {
        for (const std::string &path : specs) {
            buffer.phase = PhaseSetup;
            SweepSpec spec = SweepSpec::fromFile(path);
            SweepRequest req = spec.makeRequest();
            PointExecutor executor(ExecutorParams{
                req.warmupCycles, req.measureCycles, req.seed,
                req.cycleSkip});
            for (const GridPoint &point : req.points) {
                buffer.phase = PhaseSetup;
                Simulator sim(executor.configFor(point));
                buffer.phase = PhaseSimulate;
                sim.runWarmup();
                sim.runMeasure();
                ++points;
            }
        }
    } catch (const std::exception &e) {
        stopTimer();
        std::fprintf(stderr, "smtprof: %s\n", e.what());
        return 1;
    }
    stopTimer();

    if (!writeSamples(out_path, exe))
        return 1;
    std::fprintf(stderr,
                 "smtprof: %u points, %zu sample words, %zu samples "
                 "dropped (buffer full), wrote %s\n",
                 points, static_cast<std::size_t>(buffer.used),
                 static_cast<std::size_t>(buffer.dropped),
                 out_path.c_str());
    return 0;
}
