/* A sampling profiler in one LD_PRELOADed file, for hosts without perf.
 *
 *   cc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   LD_PRELOAD=./sigprof.so SIGPROF_OUT=run.samples ./experiments run ...
 *
 * Every 1 ms of CPU time the handler records the interrupted pc and walks
 * the frame-pointer chain while it stays in the main object's text (build
 * with -C force-frame-pointers=yes). libc has no frame pointers, so for a
 * pc outside the text it scans the stack up from sp for the first word
 * pointing into the text, the return address of the call that left it,
 * and writes the leaf as 0: malloc/memset/memcpy time lands on its caller.
 * On exit: one line a sample, leaf first, load-base-relative addresses (what
 * addr2line -e wants for a PIE). x86-64 Linux only. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 18)
#define MAX_DEPTH 16
#define SCAN_WORDS 256

static uintptr_t base, text_lo, text_hi;
static uintptr_t (*samples)[MAX_DEPTH];
static volatile int taken;

static int in_text(uintptr_t pc) { return pc >= text_lo && pc < text_hi; }

static int find_text(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size; (void)data;
    base = info->dlpi_addr; /* the first object is the main program */
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X)) {
            text_lo = base + ph->p_vaddr;
            text_hi = text_lo + ph->p_memsz;
        }
    }
    return 1;
}

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig; (void)si;
    int n = taken;
    if (n >= MAX_SAMPLES) return;
    ucontext_t *uc = ctx;
    greg_t *regs = uc->uc_mcontext.gregs;
    uintptr_t pc = regs[REG_RIP], fp = regs[REG_RBP], sp = regs[REG_RSP];
    uintptr_t *out = samples[n];
    int depth = 0;
    if (in_text(pc)) {
        out[depth++] = pc - base;
    } else {
        out[depth++] = 0;
        uintptr_t *w = (uintptr_t *)sp;
        for (int i = 0; i < SCAN_WORDS; i++) {
            if (fp > sp && (uintptr_t)&w[i] >= fp) break;
            if (in_text(w[i])) { out[depth++] = w[i] - base; break; }
        }
    }
    while (depth < MAX_DEPTH && fp > sp && (fp & 7) == 0) {
        uintptr_t *frame = (uintptr_t *)fp;
        uintptr_t ret = frame[1];
        if (!in_text(ret)) break;
        out[depth++] = ret - base;
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    while (depth < MAX_DEPTH) out[depth++] = (uintptr_t)-1;
    taken = n + 1;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *f = fopen(path ? path : "sigprof.samples", "w");
    if (!f) return;
    for (int i = 0; i < taken; i++) {
        for (int d = 0; d < MAX_DEPTH && samples[i][d] != (uintptr_t)-1; d++)
            fprintf(f, d ? " 0x%lx" : "0x%lx", (unsigned long)samples[i][d]);
        fputc('\n', f);
    }
    fclose(f);
}

__attribute__((constructor)) static void arm(void) {
    dl_iterate_phdr(find_text, NULL);
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    if (!samples || !text_hi) return;
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
    atexit(dump);
}
