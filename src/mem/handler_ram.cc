#include "mem/handler_ram.h"

#include "support/logging.h"

namespace rtd::mem {

void
HandlerRam::load(const std::vector<uint32_t> &code)
{
    code_ = code;
    decoded_.resize(code_.size());
    for (size_t i = 0; i < code_.size(); ++i)
        decoded_[i] = isa::predecode(code_[i]);
    // Handler code is static, so build its blocks once, here: a block
    // is reachable from any word (branch targets are not known ahead of
    // execution), so one is scanned per word index.
    // swic_ends = false: handler text is immutable, so the store-heavy
    // decompression loops run as whole blocks across their swics.
    blockMeta_.resize(code_.size());
    for (size_t i = 0; i < code_.size(); ++i) {
        blockMeta_[i] = isa::scanBlock(
            decoded_.data() + i,
            static_cast<uint32_t>(code_.size() - i),
            /*swic_ends=*/false);
    }
    // First conditional branch on each word's straight-line path. A
    // chain of unconditional jumps longer than the RAM is a cycle with
    // no branch; it resolves to kNoBranch like any other dead end.
    const size_t n = code_.size();
    condFrom_.assign(n, kNoBranch);
    for (size_t i = 0; i < n; ++i) {
        size_t j = i;
        for (size_t steps = 0; steps <= n && j < n; ++steps) {
            const isa::DecodedInst &d = decoded_[j];
            if (!d.inst.valid())
                break;
            if (d.isCondBranch) {
                condFrom_[i] = static_cast<uint32_t>(j);
                break;
            }
            if (d.inst.op == isa::Op::J || d.inst.op == isa::Op::Jal) {
                uint32_t jump_pc = base + static_cast<uint32_t>(j) * 4;
                uint32_t target =
                    (jump_pc & 0xf0000000u) | (d.inst.target << 2);
                if (!contains(target))
                    break;
                j = (target - base) / 4;
                continue;
            }
            if (isa::endsBlock(d) && d.inst.op != isa::Op::Swic)
                break;  // jr, jalr, iret, halt
            ++j;
        }
    }
    condSucc_.assign(n, {kNoBranch, kNoBranch});
    for (size_t b = 0; b < n; ++b) {
        if (!decoded_[b].isCondBranch)
            continue;
        int64_t target = static_cast<int64_t>(b) + 1 +
                         static_cast<int16_t>(decoded_[b].inst.imm);
        if (b + 1 < n)
            condSucc_[b][0] = condFrom_[b + 1];
        if (target >= 0 && target < static_cast<int64_t>(n))
            condSucc_[b][1] = condFrom_[static_cast<size_t>(target)];
    }
}

} // namespace rtd::mem
