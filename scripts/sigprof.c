// A sampling profiler in one LD_PRELOAD library, for images with no perf:
// SIGPROF on every tick of ITIMER_PROF (process CPU time), the handler
// stores the interrupted instruction pointer, and at exit the samples and
// /proc/self/maps go to $SIGPROF_OUT for scripts/profile.sh to symbolise.
// x86-64 Linux only. Children are not profiled (LD_PRELOAD is unset).
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1L << 20)
static unsigned long long *samples;
static long taken;

static void on_tick(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    long at = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (at < MAX_SAMPLES)
        samples[at] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    unsetenv("LD_PRELOAD");
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    struct sigaction sa = {.sa_sigaction = on_tick, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    // Asks for 1 ms; the kernel rounds up to its own tick (4 ms at HZ=250).
    struct itimerval tick = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tick, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps || !samples)
        return;
    for (long i = 0; i < taken && i < MAX_SAMPLES; i++)
        fprintf(out, "%llx\n", samples[i]);
    fputs("maps\n", out);
    for (int c; (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    fclose(out);
}
