/**
 * @file
 * Prints the software decompression exception handlers as assembly —
 * the dictionary handler is the paper's Figure 2, transcribed for this
 * ISA — together with their measured per-miss dynamic instruction
 * counts. The dictionary rows run a tiny probe program; the CodePack
 * rows run a generated paper benchmark, since a CodePack miss costs
 * what its group's codewords cost and the probe's 127 identical
 * instructions all take the shortest one.
 *
 *   $ ./build/examples/inspect_handler
 */

#include <cstdio>

#include "core/system.h"
#include "isa/disasm.h"
#include "mem/handler_ram.h"
#include "program/builder.h"
#include "runtime/handlers.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

using namespace rtd;
using namespace rtd::isa;

namespace {

void
dump(const char *title, const runtime::HandlerBuild &handler)
{
    std::printf("\n%s (%u instructions, %u bytes%s)\n", title,
                handler.staticInsns(), handler.sizeBytes(),
                handler.usesShadowRegs ? ", shadow register file" : "");
    for (size_t i = 0; i < handler.code.size(); ++i) {
        uint32_t pc = mem::HandlerRam::base +
                      static_cast<uint32_t>(i) * 4;
        std::printf("  %08x:  %08x  %s\n", pc, handler.code[i],
                    disassembleWord(handler.code[i], pc).c_str());
    }
}

/** A tiny program: 127 identical instructions, then halt. */
prog::Program
probe()
{
    prog::Program program;
    prog::ProcedureBuilder b("main");
    for (int i = 0; i < 127; ++i)
        b.addiu(T0, T0, 1);
    b.halt(0);
    program.procs.push_back(b.take());
    program.entry = 0;
    program.name = "probe";
    return program;
}

/** Measure dynamic handler instructions per miss of @p program. */
double
measure(const prog::Program &program, compress::Scheme scheme, bool rf)
{
    core::SystemConfig config;
    config.scheme = scheme;
    config.secondRegFile = rf;
    core::System system(program, config);
    core::SystemResult result = system.run();
    return static_cast<double>(result.stats.handlerInsns) /
           static_cast<double>(result.stats.exceptions);
}

} // namespace

int
main()
{
    dump("Dictionary decompression handler (paper Figure 2)",
         runtime::buildDictionaryHandler(false));
    dump("Dictionary handler, second register file (unrolled)",
         runtime::buildDictionaryHandler(true));

    runtime::HandlerBuild cp = runtime::buildCodePackHandler(false);
    std::printf("\nCodePack handler: %u instructions, %u bytes "
                "(bit-serial tag decode; full listing omitted)\n",
                cp.staticInsns(), cp.sizeBytes());

    prog::Program tiny = probe();
    prog::Program go = workload::WorkloadGenerator(
        workload::scaledSpec(workload::paperBenchmark("go"), 0.02))
                           .generate();
    std::printf("\nmeasured dynamic instructions per miss exception:\n");
    std::printf("  dictionary      : %.0f  (paper: 75 per line)\n",
                measure(tiny, compress::Scheme::Dictionary, false));
    std::printf("  dictionary + RF : %.0f\n",
                measure(tiny, compress::Scheme::Dictionary, true));
    std::printf("  codepack        : %.0f  (go at scale 0.02; paper: ~1120 "
                "per 16-instruction group)\n",
                measure(go, compress::Scheme::CodePack, false));
    std::printf("  codepack + RF   : %.0f\n",
                measure(go, compress::Scheme::CodePack, true));
    return 0;
}
