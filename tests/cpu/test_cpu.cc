/** @file Unit tests for the CPU: semantics, timing model, predictor. */

#include <gtest/gtest.h>

#include "core/system.h"
#include "cpu/predictor.h"
#include "program/builder.h"

namespace rtd::cpu {
namespace {

using namespace rtd::isa;
using prog::Label;
using prog::ProcedureBuilder;
using prog::Program;

/** Run a single-procedure program natively and return the result. */
core::SystemResult
runProgram(Program program, core::SystemConfig config = {})
{
    config.cpu.maxUserInsns = 1'000'000;
    core::System system(program, config);
    return system.run();
}

Program
singleProc(ProcedureBuilder &b)
{
    Program program;
    program.name = "t";
    program.procs.push_back(b.take());
    program.entry = 0;
    return program;
}

TEST(CpuExec, ArithmeticAndHalt)
{
    ProcedureBuilder b("main");
    b.addiu(T0, Zero, 40);
    b.addiu(T1, Zero, 2);
    b.addu(V0, T0, T1);
    b.halt(5);
    auto result = runProgram(singleProc(b));
    EXPECT_TRUE(result.stats.halted);
    EXPECT_EQ(result.stats.exitCode, 5);
    EXPECT_EQ(result.stats.resultValue, 42u);
    EXPECT_EQ(result.stats.userInsns, 4u);
}

TEST(CpuExec, SignedUnsignedComparisons)
{
    ProcedureBuilder b("main");
    b.addiu(T0, Zero, -1);       // 0xffffffff
    b.slti(T1, T0, 0);           // signed: -1 < 0 -> 1
    b.sltiu(T2, T0, 0);          // unsigned: max < 0 -> 0
    b.sll(T1, T1, 1);
    b.or_(V0, T1, T2);           // 2
    b.halt(0);
    auto result = runProgram(singleProc(b));
    EXPECT_EQ(result.stats.resultValue, 2u);
}

TEST(CpuExec, ShiftsAndLogic)
{
    ProcedureBuilder b("main");
    b.addiu(T0, Zero, -8);           // 0xfffffff8
    b.sra(T1, T0, 2);                // -2
    b.srl(T2, T0, 28);               // 0xf
    b.addiu(T3, Zero, 2);
    b.sllv(T4, T2, T3);              // 0xf << 2 = 0x3c
    b.xor_(V0, T4, T1);              // 0x3c ^ 0xfffffffe
    b.halt(0);
    auto result = runProgram(singleProc(b));
    EXPECT_EQ(result.stats.resultValue, 0x3cu ^ 0xfffffffeu);
}

TEST(CpuExec, MultiplyDivide)
{
    ProcedureBuilder b("main");
    b.addiu(T0, Zero, 1000);
    b.addiu(T1, Zero, 3);
    b.mult(T0, T1);
    b.mflo(T2);                      // 3000
    b.div(T0, T1);
    b.mflo(T3);                      // 333
    b.mfhi(T4);                      // 1
    b.addu(V0, T2, T3);
    b.addu(V0, V0, T4);              // 3334
    b.halt(0);
    auto result = runProgram(singleProc(b));
    EXPECT_EQ(result.stats.resultValue, 3334u);
}

TEST(CpuExec, LoadsStoresAllWidths)
{
    ProcedureBuilder b("main");
    b.li32(T0, prog::layout::dataBase);
    b.li32(T1, 0x80c1f223);
    b.sw(T1, 0, T0);
    b.lbu(T2, 3, T0);    // 0x80
    b.lb(T3, 1, T0);     // 0xf2 sign-extended = -14
    b.lhu(T4, 0, T0);    // 0xf223
    b.lh(T5, 2, T0);     // 0x80c1 sign-extended
    b.sh(T4, 4, T0);
    b.sb(T2, 6, T0);
    b.lw(T6, 4, T0);     // 0x0080f223
    b.addu(V0, T2, T6);
    b.halt(0);
    auto result = runProgram(singleProc(b));
    EXPECT_EQ(result.stats.resultValue, 0x80u + 0x0080f223u);
}

TEST(CpuExec, LwxIndexedLoad)
{
    ProcedureBuilder b("main");
    b.li32(T0, prog::layout::dataBase);
    b.addiu(T1, Zero, 123);
    b.sw(T1, 8, T0);
    b.addiu(T2, Zero, 8);
    b.lwx(V0, T0, T2);
    b.halt(0);
    auto result = runProgram(singleProc(b));
    EXPECT_EQ(result.stats.resultValue, 123u);
}

TEST(CpuExec, RemainingAluOps)
{
    ProcedureBuilder b("main");
    b.addiu(T0, Zero, -16);          // 0xfffffff0
    b.addiu(T1, Zero, 2);
    b.srlv(T2, T0, T1);              // 0x3ffffffc
    b.srav(T3, T0, T1);              // -4
    b.nor(T4, T0, Zero);             // ~0xfffffff0 = 0xf
    b.sltu(T5, T1, T0);              // 2 < huge unsigned -> 1
    b.slt(T6, T0, T1);               // -16 < 2 signed -> 1
    b.and_(T7, T2, T4);              // 0x3ffffffc & 0xf = 0xc
    b.subu(V0, T7, Zero);
    b.addu(V0, V0, T5);
    b.addu(V0, V0, T6);              // 0xc + 1 + 1 = 14
    b.xor_(V0, V0, T3);              // 14 ^ -4
    b.halt(0);
    auto result = runProgram(singleProc(b));
    EXPECT_EQ(result.stats.resultValue, 14u ^ 0xfffffffcu);
}

TEST(CpuExec, OneRegBranchesAndJump)
{
    // bltz/bgez/blez taken and not-taken paths, and a j-to-procedure.
    Program program;
    {
        ProcedureBuilder b("tail");
        b.addiu(V0, V0, 100);
        b.halt(0);
        program.procs.push_back(b.take());
    }
    {
        ProcedureBuilder b("main");
        prog::Label l1 = b.newLabel();
        prog::Label l2 = b.newLabel();
        prog::Label l3 = b.newLabel();
        b.addiu(T0, Zero, -5);
        b.bltz(T0, l1);          // taken
        b.addiu(V0, V0, 1000);   // skipped
        b.bind(l1);
        b.bgez(T0, l2);          // not taken (-5 < 0)
        b.addiu(V0, V0, 7);      // executed
        b.bind(l2);
        b.blez(Zero, l3);        // taken (0 <= 0)
        b.addiu(V0, V0, 1000);   // skipped
        b.bind(l3);
        b.j(0);                  // jump to tail, never returns
        program.procs.push_back(b.take());
        program.entry = 1;
    }
    auto result = runProgram(program);
    EXPECT_EQ(result.stats.resultValue, 107u);
}

TEST(CpuExec, HiLoMoves)
{
    ProcedureBuilder b("main");
    b.addiu(T0, Zero, 42);
    b.mthi(T0);
    b.addiu(T1, Zero, 17);
    b.mtlo(T1);
    b.mfhi(T2);
    b.mflo(T3);
    b.addu(V0, T2, T3);  // 59
    // multu of large unsigned values: hi must hold the carry-out.
    b.li32(T4, 0x80000000);
    b.addiu(T5, Zero, 4);
    b.multu(T4, T5);
    b.mfhi(T6);          // 2
    b.addu(V0, V0, T6);  // 61
    b.halt(0);
    auto result = runProgram(singleProc(b));
    EXPECT_EQ(result.stats.resultValue, 61u);
}

TEST(CpuExec, LoopAndBranches)
{
    ProcedureBuilder b("main");
    b.addiu(T0, Zero, 10);   // counter
    b.addu(V0, Zero, Zero);
    Label loop = b.newLabel();
    b.bind(loop);
    b.addu(V0, V0, T0);
    b.addiu(T0, T0, -1);
    b.bgtz(T0, loop);
    b.halt(0);
    auto result = runProgram(singleProc(b));
    EXPECT_EQ(result.stats.resultValue, 55u);  // 10+9+...+1
}

TEST(CpuExec, CallsThroughJalAndJalr)
{
    Program program;
    {
        ProcedureBuilder b("callee");
        b.addiu(V0, V0, 1);
        b.jr(Ra);
        program.procs.push_back(b.take());
    }
    {
        ProcedureBuilder b("main");
        b.jal(0);
        b.jal(0);
        // Indirect call through a table entry.
        b.li32(T0, prog::layout::dataBase);
        b.lw(T1, 0, T0);
        b.jalr(Ra, T1);
        b.halt(0);
        program.procs.push_back(b.take());
    }
    program.entry = 1;
    program.data.assign(4, 0);
    program.dataSize = 4;
    program.dataRelocs.push_back(prog::DataReloc{0, 0});
    auto result = runProgram(program);
    EXPECT_EQ(result.stats.resultValue, 3u);
}

TEST(CpuTiming, CyclesAtLeastInstructions)
{
    ProcedureBuilder b("main");
    for (int i = 0; i < 100; ++i)
        b.addiu(T0, T0, 1);
    b.halt(0);
    auto result = runProgram(singleProc(b));
    EXPECT_GE(result.stats.cycles, result.stats.userInsns);
}

TEST(CpuTiming, LoadUseStallCharged)
{
    // lw immediately followed by a consumer stalls one cycle.
    ProcedureBuilder b1("main");
    b1.li32(T0, prog::layout::dataBase);
    b1.lw(T1, 0, T0);
    b1.addu(T2, T1, T1);  // load-use
    b1.halt(0);
    auto with_stall = runProgram(singleProc(b1));

    ProcedureBuilder b2("main");
    b2.li32(T0, prog::layout::dataBase);
    b2.lw(T1, 0, T0);
    b2.addu(T2, T3, T3);  // independent
    b2.halt(0);
    auto without_stall = runProgram(singleProc(b2));

    EXPECT_EQ(with_stall.stats.loadUseStalls, 1u);
    EXPECT_EQ(without_stall.stats.loadUseStalls, 0u);
    EXPECT_EQ(with_stall.stats.cycles, without_stall.stats.cycles + 1);
}

TEST(CpuTiming, ColdCachesMissOnce)
{
    ProcedureBuilder b("main");
    // 16 instructions = two 32 B I-lines.
    for (int i = 0; i < 15; ++i)
        b.addiu(T0, T0, 1);
    b.halt(0);
    auto result = runProgram(singleProc(b));
    EXPECT_EQ(result.stats.icacheMisses, 2u);
    EXPECT_EQ(result.stats.icacheAccesses, 16u);
    EXPECT_EQ(result.stats.nativeMisses, 2u);
    EXPECT_EQ(result.stats.compressedMisses, 0u);
    // Each native I-fill bursts 32 B over the 64-bit bus: 10 + 3*2.
    EXPECT_EQ(result.stats.cycles,
              16u /* insns */ + 2u * 16u /* fills */);
}

TEST(CpuTiming, DirtyWritebackCosts)
{
    // Write one line, then walk far enough to evict it (2-way, 256 sets,
    // 16 B lines => lines 8 KB apart collide).
    ProcedureBuilder b("main");
    b.li32(T0, prog::layout::dataBase);
    b.addiu(T1, Zero, 77);
    b.sw(T1, 0, T0);          // miss + dirty
    b.li32(T2, prog::layout::dataBase + 8 * 1024);
    b.lw(T3, 0, T2);          // miss, same set
    b.li32(T4, prog::layout::dataBase + 16 * 1024);
    b.lw(T5, 0, T4);          // miss, evicts dirty line -> writeback
    b.lw(V0, 0, T0);          // miss again; must read back 77
    b.halt(0);
    auto result = runProgram(singleProc(b));
    EXPECT_EQ(result.stats.resultValue, 77u);
    EXPECT_EQ(result.stats.writebacks, 1u);
    EXPECT_EQ(result.stats.dcacheMisses, 4u);
}

TEST(Predictor, LearnsStronglyBiasedBranch)
{
    BimodalPredictor predictor(16);
    uint32_t pc = 0x400000;
    for (int i = 0; i < 100; ++i)
        predictor.update(pc, true);
    EXPECT_TRUE(predictor.predict(pc));
    // At most the first update can mispredict from the weakly-taken
    // initial state.
    EXPECT_LE(predictor.mispredicts(), 1u);
}

TEST(Predictor, AlternatingBranchMispredictsOften)
{
    BimodalPredictor predictor(16);
    uint32_t pc = 0x400000;
    uint64_t before = predictor.mispredicts();
    for (int i = 0; i < 100; ++i)
        predictor.update(pc, i % 2 == 0);
    EXPECT_GT(predictor.mispredicts() - before, 30u);
}

TEST(Predictor, EntriesIndexedByPc)
{
    BimodalPredictor predictor(2048);
    // Train two different PCs in opposite directions; both must stick.
    for (int i = 0; i < 10; ++i) {
        predictor.update(0x1000, true);
        predictor.update(0x1004, false);
    }
    EXPECT_TRUE(predictor.predict(0x1000));
    EXPECT_FALSE(predictor.predict(0x1004));
}

TEST(CpuExec, UserModeSwicInstallsExecutableCode)
{
    // Paper section 6: swic "may also be useful for dynamic compilation
    // and high-performance interpreters". A user program builds a tiny
    // function (addiu v0,v0,123; jr ra) and installs it straight into
    // the I-cache at an address that has no memory backing; as long as
    // the line stays resident it executes like any other code.
    ProcedureBuilder b("main");
    uint32_t target = prog::layout::textBase + 0x8000;
    Instruction body;
    body.op = Op::Addiu;
    body.rt = V0;
    body.rs = V0;
    body.imm = 123;
    Instruction ret;
    ret.op = Op::Jr;
    ret.rs = Ra;

    b.li32(T0, target);
    b.li32(T1, encode(body));
    b.swic(T1, 0, T0);
    b.li32(T1, encode(ret));
    b.swic(T1, 4, T0);
    // Pad the rest of the 32 B line with nops so a stray fetch is safe.
    b.li32(T1, nopWord());
    for (int16_t off = 8; off < 32; off = static_cast<int16_t>(off + 4))
        b.swic(T1, off, T0);
    b.jalr(Ra, T0);
    b.halt(0);
    auto result = runProgram(singleProc(b));
    EXPECT_TRUE(result.stats.halted);
    EXPECT_EQ(result.stats.resultValue, 123u);
}

TEST(CpuDeath, InvalidInstructionRaisesMachineCheck)
{
    // Install an undefined encoding (reserved primary opcode 0x3e) with
    // a user-mode swic and jump to it: execution must stop with a
    // structured machine-check halt — a diagnosable RunResult, not
    // process death (DESIGN.md section 12).
    ProcedureBuilder b("main");
    uint32_t target = prog::layout::textBase + 0x8000;
    b.li32(T0, target);
    b.li32(T1, 0xf8000000u);
    b.swic(T1, 0, T0);
    b.jr(T0);
    b.halt(0);
    Program program = singleProc(b);
    core::SystemConfig config;
    core::System system(program, config);
    core::SystemResult result = system.run();
    EXPECT_FALSE(result.stats.halted);
    EXPECT_TRUE(result.stats.machineCheckHalt);
    EXPECT_EQ(result.stats.faultKind, McKind::InvalidInst);
    EXPECT_EQ(result.stats.faultAddr, target);
    EXPECT_EQ(result.stats.machineChecks, 1u);
}

TEST(CpuExec, RunStatsDerivedMetrics)
{
    ProcedureBuilder b("main");
    for (int i = 0; i < 7; ++i)
        b.addiu(T0, T0, 1);
    b.halt(0);
    auto result = runProgram(singleProc(b));
    EXPECT_GT(result.stats.icacheMissRatio(), 0.0);
    EXPECT_GT(result.stats.cpi(), 1.0);
}

} // namespace
} // namespace rtd::cpu
