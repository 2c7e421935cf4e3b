#include "cpu/handler_replay.h"

#include <array>
#include <bit>

#include "isa/blocks.h"

namespace rtd::cpu {

namespace {

using isa::Op;

/**
 * Abstract register value. Key: a function of the fill unit (and of
 * the immutable tables), except for the bits in @c dep, which may vary
 * with the word offset of c0[BadVa] inside the unit. Entry: exactly
 * the entry value of register @c reg. Top: anything else.
 */
struct AVal
{
    enum Kind : uint8_t { Key, Entry, Top };
    Kind kind = Top;
    uint8_t reg = 0;
    uint32_t dep = 0;

    bool
    operator==(const AVal &o) const
    {
        return kind == o.kind && reg == o.reg && dep == o.dep;
    }
    bool clean() const { return kind == Key && dep == 0; }
};

AVal
keyVal(uint32_t dep)
{
    return {AVal::Key, 0, dep};
}

AVal
join(const AVal &a, const AVal &b)
{
    if (a.kind == AVal::Key && b.kind == AVal::Key)
        return keyVal(a.dep | b.dep);
    return a == b ? a : AVal{};
}

/** Bits an add/subtract result may vary in: carries only move up. */
uint32_t
carryDep(uint32_t dep)
{
    return dep ? ~((dep & (~dep + 1)) - 1) : 0;
}

constexpr size_t kMaxSlots = 24;

/** Abstract machine state before one handler word. */
struct AState
{
    bool reached = false;
    std::array<AVal, isa::numRegs> r{};
    /** 4-byte stack slots stored on every path: (sp offset, value). */
    std::array<std::pair<int32_t, AVal>, kMaxSlots> slots{};
    uint8_t nslots = 0;

    AVal
    read(unsigned reg) const
    {
        return reg == 0 ? keyVal(0) : r[reg];
    }
};

/** Join @p in into @p into; true when @p into changed. */
bool
joinInto(AState &into, const AState &in)
{
    if (!into.reached) {
        into = in;
        return true;
    }
    bool changed = false;
    for (size_t i = 0; i < isa::numRegs; ++i) {
        AVal v = join(into.r[i], in.r[i]);
        if (!(v == into.r[i])) {
            into.r[i] = v;
            changed = true;
        }
    }
    uint8_t kept = 0;
    for (uint8_t i = 0; i < into.nslots; ++i) {
        const auto &slot = into.slots[i];
        for (uint8_t j = 0; j < in.nslots; ++j) {
            if (in.slots[j].first != slot.first)
                continue;
            AVal v = join(slot.second, in.slots[j].second);
            if (!(v == slot.second))
                changed = true;
            into.slots[kept++] = {slot.first, v};
            break;
        }
    }
    if (kept != into.nslots)
        changed = true;
    into.nslots = kept;
    return changed;
}

/** What one instruction contributes to the plan. */
struct StepOut
{
    uint8_t memKind = kMemNone;
    uint8_t storeSrc = 0;
    int32_t spOff = 0;
    uint8_t size = 0;
};

unsigned
accessBytes(Op op)
{
    switch (op) {
      case Op::Lb: case Op::Lbu: case Op::Sb: return 1;
      case Op::Lh: case Op::Lhu: case Op::Sh: return 2;
      default: return 4;
    }
}

/**
 * Abstract transfer of @p d over @p s (in place). False when the
 * instruction breaks one of ReplayPlan's guarantees.
 */
bool
step(const isa::DecodedInst &d, AState &s, uint32_t badva_dep,
     StepOut &out)
{
    const isa::Instruction &inst = d.inst;
    const AVal a = s.read(inst.rs);
    const AVal b = s.read(inst.rt);
    const bool keys = a.kind == AVal::Key && b.kind == AVal::Key;
    const int32_t simm = static_cast<int16_t>(inst.imm);
    AVal res;  // Top unless an op below says otherwise
    switch (inst.op) {
      case Op::Sll:
        if (b.kind == AVal::Key)
            res = keyVal(b.dep << inst.shamt);
        break;
      case Op::Srl:
        if (b.kind == AVal::Key)
            res = keyVal(b.dep >> inst.shamt);
        break;
      case Op::Sra:
        if (b.kind == AVal::Key) {
            res = keyVal(static_cast<uint32_t>(
                static_cast<int32_t>(b.dep) >> inst.shamt));
        }
        break;
      case Op::Sllv: case Op::Srlv: case Op::Srav:
        if (keys)
            res = keyVal((a.dep & 31) || b.dep ? ~0u : 0);
        break;
      case Op::Add: case Op::Addu: case Op::Sub: case Op::Subu:
        if (keys)
            res = keyVal(carryDep(a.dep | b.dep));
        break;
      case Op::And: case Op::Or: case Op::Xor: case Op::Nor:
        if (keys)
            res = keyVal(a.dep | b.dep);
        break;
      case Op::Slt: case Op::Sltu:
        if (keys)
            res = keyVal((a.dep | b.dep) ? 1 : 0);
        break;
      case Op::Addi: case Op::Addiu:
        if (a.kind == AVal::Key)
            res = keyVal(carryDep(a.dep));
        break;
      case Op::Slti: case Op::Sltiu:
        if (a.kind == AVal::Key)
            res = keyVal(a.dep ? 1 : 0);
        break;
      case Op::Andi:
        if (a.kind == AVal::Key)
            res = keyVal(a.dep & inst.imm);
        break;
      case Op::Ori: case Op::Xori:
        if (a.kind == AVal::Key)
            res = keyVal(a.dep);
        break;
      case Op::Lui:
        res = keyVal(0);
        break;

      case Op::Mfc0:
        if (inst.rd >= isa::numC0Regs)
            return false;
        res = keyVal(inst.rd == isa::C0BadVa || inst.rd == isa::C0Epc
                         ? badva_dep
                         : 0);
        break;

      case Op::Lb: case Op::Lbu: case Op::Lh: case Op::Lhu: case Op::Lw:
      case Op::Sb: case Op::Sh: case Op::Sw: {
        unsigned size = accessBytes(inst.op);
        bool store = inst.op == Op::Sb || inst.op == Op::Sh ||
                     inst.op == Op::Sw;
        out.size = static_cast<uint8_t>(size);
        if (a.clean() && !store) {
            out.memKind = kMemAbs;
            res = keyVal(0);
            break;
        }
        if (!(a.kind == AVal::Entry && a.reg == isa::Sp) ||
            (simm & static_cast<int32_t>(size - 1)) != 0)
            return false;
        out.memKind = kMemSpRel;
        out.spOff = simm;
        if (!store) {
            if (size != 4)
                return false;
            bool found = false;
            for (uint8_t i = 0; i < s.nslots; ++i) {
                if (s.slots[i].first == simm) {
                    res = s.slots[i].second;
                    found = true;
                }
            }
            if (!found)
                return false;  // a slot this run never stored
            break;
        }
        if (b.clean())
            out.storeSrc = 0;
        else if (b.kind == AVal::Entry)
            out.storeSrc = b.reg;
        else
            return false;
        // The store kills every slot it overlaps, then (words only)
        // defines its own.
        uint8_t kept = 0;
        for (uint8_t i = 0; i < s.nslots; ++i) {
            int32_t off = s.slots[i].first;
            if (off + 4 <= simm || off >= simm + static_cast<int32_t>(size))
                s.slots[kept++] = s.slots[i];
        }
        s.nslots = kept;
        if (size == 4) {
            if (s.nslots == kMaxSlots)
                return false;
            s.slots[s.nslots++] = {simm, b};
        }
        return true;  // no register result
      }
      case Op::Lwx:
        if (!a.clean() || !b.clean())
            return false;
        out.memKind = kMemAbs;
        out.size = 4;
        res = keyVal(0);
        break;

      case Op::Swic:
        return a.clean() && b.clean();
      case Op::Beq: case Op::Bne:
        return a.clean() && b.clean();
      case Op::Blez: case Op::Bgtz: case Op::Bltz: case Op::Bgez:
        return a.clean();
      case Op::J:
      case Op::Syscall: case Op::Break:
      case Op::Iret:
        return true;
      case Op::Jal:
        res = keyVal(0);
        break;

      default:
        // hi/lo traffic, c0 writes, jr/jalr, halt, invalid encodings.
        return false;
    }
    if (d.dest != 0)
        s.r[d.dest] = res;
    return true;
}

/** Registers holding a unit-determined value at iret, as a bit mask;
 *  false when some register is neither that nor its entry value. */
bool
effectMask(const AState &s, uint32_t &mask)
{
    mask = 0;
    for (unsigned r = 1; r < isa::numRegs; ++r) {
        const AVal &v = s.r[r];
        if (v.kind == AVal::Entry && v.reg == r)
            continue;
        if (!v.clean())
            return false;
        mask |= 1u << r;
    }
    return true;
}

ReplayPlan
analyzeUnit(const mem::HandlerRam &ram, uint32_t entry, uint32_t unit)
{
    ReplayPlan plan;
    const size_t n = ram.sizeBytes() / 4;
    const isa::DecodedInst *text = ram.decodedFrom(mem::HandlerRam::base);
    const uint32_t badva_dep = (unit - 1) & ~3u;
    auto index_of = [&](uint32_t addr) {
        return static_cast<size_t>((addr - mem::HandlerRam::base) / 4);
    };
    // Successors of word @p i, or false when control leaves the RAM or
    // depends on a register (never valid here: jr/jalr fail step()).
    auto successors = [&](size_t i, size_t succ[2], unsigned &count) {
        const isa::DecodedInst &d = text[i];
        uint32_t pc = mem::HandlerRam::base + static_cast<uint32_t>(i) * 4;
        count = 0;
        if (d.inst.op == Op::Iret)
            return true;
        uint32_t next[2];
        unsigned k = 0;
        if (d.inst.op == Op::J || d.inst.op == Op::Jal) {
            next[k++] = (pc & 0xf0000000u) | (d.inst.target << 2);
        } else {
            next[k++] = pc + 4;
            if (d.isCondBranch) {
                next[k++] = pc + 4 +
                            (static_cast<uint32_t>(static_cast<int32_t>(
                                 static_cast<int16_t>(d.inst.imm)))
                             << 2);
            }
        }
        for (unsigned j = 0; j < k; ++j) {
            if (!ram.contains(next[j]) || (next[j] & 3) != 0)
                return false;
            succ[count++] = index_of(next[j]);
        }
        return true;
    };

    // Forward dataflow to a fixpoint. Joins only widen (dep masks grow,
    // kinds move to Top, slots shrink), so this terminates.
    std::vector<AState> states(n);
    AState init;
    init.reached = true;
    for (unsigned r = 0; r < isa::numRegs; ++r)
        init.r[r] = AVal{AVal::Entry, static_cast<uint8_t>(r), 0};
    states[index_of(entry)] = init;
    std::vector<size_t> work{index_of(entry)};
    std::vector<uint8_t> queued(n, 0);
    queued[index_of(entry)] = 1;
    while (!work.empty()) {
        size_t i = work.back();
        work.pop_back();
        queued[i] = 0;
        AState s = states[i];
        StepOut out;
        const isa::DecodedInst &d = text[i];
        if (!step(d, s, badva_dep, out))
            return plan;
        size_t succ[2];
        unsigned count = 0;
        if (!successors(i, succ, count))
            return plan;
        for (unsigned j = 0; j < count; ++j) {
            if (joinInto(states[succ[j]], s) && !queued[succ[j]]) {
                queued[succ[j]] = 1;
                work.push_back(succ[j]);
            }
        }
    }

    // Read the plan off the fixpoint states.
    plan.memKind.assign(n, kMemNone);
    plan.storeSrc.assign(n, 0);
    bool have_mask = false;
    uint32_t mask = 0;
    bool have_sp = false;
    for (size_t i = 0; i < n; ++i) {
        if (!states[i].reached)
            continue;
        AState s = states[i];
        StepOut out;
        const isa::DecodedInst &d = text[i];
        step(d, s, badva_dep, out);
        plan.memKind[i] = out.memKind;
        plan.storeSrc[i] = out.storeSrc;
        if (out.memKind == kMemSpRel) {
            int32_t hi = out.spOff + out.size;
            plan.spLo = have_sp ? std::min(plan.spLo, out.spOff) : out.spOff;
            plan.spHi = have_sp ? std::max(plan.spHi, hi) : hi;
            have_sp = true;
        }
        if (d.inst.op == Op::Iret) {
            uint32_t m;
            if (!effectMask(states[i], m) || (have_mask && m != mask))
                return plan;
            mask = m;
            have_mask = true;
        }
    }
    if (!have_mask)
        return plan;  // never returns
    plan.usesSp = have_sp;
    for (unsigned r = 1; r < isa::numRegs; ++r) {
        if (mask & (1u << r))
            plan.effectRegs.push_back(static_cast<uint8_t>(r));
    }
    plan.unitBytes = unit;
    plan.unitShift = static_cast<uint8_t>(std::countr_zero(unit));
    plan.ok = true;
    return plan;
}

} // namespace

ReplayPlan
analyzeHandler(const mem::HandlerRam &ram, uint32_t entry)
{
    for (uint32_t unit = 256; unit >= 8; unit /= 2) {
        ReplayPlan plan = analyzeUnit(ram, entry, unit);
        if (plan.ok)
            return plan;
    }
    return ReplayPlan{};
}

namespace {

/** Words in the trace at @p t, for a plan with @p effect_regs effect
 *  registers (the layout is described at TraceStore). */
size_t
traceWords(const uint32_t *t, size_t effect_regs)
{
    const size_t nacc = t[kTrAccesses];
    const size_t swic_words =
        (t[kTrSwics] & kSwicTruth) ? 0 : 2 * size_t{t[kTrSwics]};
    return kTrHeaderWords + (size_t{t[kTrBranches]} + 31) / 32 +
           (nacc + 3) / 4 + nacc + t[kTrStores] + swic_words +
           effect_regs;
}

} // namespace

uint64_t
traceFingerprint(std::span<const uint32_t> handler_words,
                 std::span<const uint32_t> c0, uint32_t lo, uint32_t hi,
                 uint8_t unit_shift)
{
    // FNV-1a over the inputs, each sequence prefixed by its length.
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint32_t word) {
        for (int k = 0; k < 4; ++k) {
            h ^= (word >> (8 * k)) & 0xFF;
            h *= 0x100000001b3ull;
        }
    };
    mix(static_cast<uint32_t>(handler_words.size()));
    for (uint32_t word : handler_words)
        mix(word);
    mix(static_cast<uint32_t>(c0.size()));
    for (uint32_t word : c0)
        mix(word);
    mix(lo);
    mix(hi);
    mix(unit_shift);
    return h;
}

std::shared_ptr<const FrozenTraces>
TraceStore::freeze(uint64_t fingerprint, size_t effect_regs) const
{
    size_t total = 0;
    for (size_t unit = 0; unit < index_.size(); ++unit) {
        if (const uint32_t *t = find(unit))
            total += traceWords(t, effect_regs);
    }
    std::vector<uint32_t> index(index_.size(), 0);
    std::vector<uint32_t> words;
    words.reserve(total);
    for (size_t unit = 0; unit < index_.size(); ++unit) {
        const uint32_t *t = find(unit);
        if (!t)
            continue;
        index[unit] = static_cast<uint32_t>(words.size() + 1);
        words.insert(words.end(), t, t + traceWords(t, effect_regs));
    }
    return std::make_shared<const FrozenTraces>(
        fingerprint, std::move(index), std::move(words));
}

} // namespace rtd::cpu
