#include "isa/program.hh"

#include "util/logging.hh"

namespace smt
{

StaticProgram::StaticProgram(std::string name, Addr base)
    : benchName(std::move(name)), baseAddr(base)
{
    if (base % instBytes != 0)
        fatal("program base 0x%llx not instruction-aligned",
              (unsigned long long)base);
}

void
StaticProgram::reserve(std::size_t num_insts, std::size_t num_blocks,
                       std::size_t num_functions)
{
    insts.reserve(num_insts);
    blocks.reserve(num_blocks);
    functions.reserve(num_functions);
}

std::span<StaticInst>
StaticProgram::addBlock(std::uint32_t num_insts, std::uint32_t function_id)
{
    if (finalized)
        panic("addBlock after finalize");
    if (num_insts == 0)
        panic("empty basic block");

    BasicBlock bb;
    bb.startPC = limit();
    bb.numInsts = num_insts;
    bb.index = static_cast<std::uint32_t>(blocks.size());
    bb.functionId = function_id;

    std::size_t first = insts.size();
    insts.resize(first + num_insts);
    Addr pc = bb.startPC;
    for (std::size_t i = first; i < insts.size(); ++i) {
        insts[i].pc = pc;
        insts[i].blockIndex = bb.index;
        pc += instBytes;
    }

    if (functions.size() <= function_id)
        functions.resize(function_id + 1);
    StaticFunction &fn = functions[function_id];
    if (fn.numBlocks == 0) {
        fn.firstBlock = bb.index;
        fn.entryPC = bb.startPC;
    }
    ++fn.numBlocks;

    blocks.push_back(bb);
    return {insts.data() + first, num_insts};
}

void
StaticProgram::finalize(Addr entry_pc)
{
    if (finalized)
        panic("double finalize");
    if (insts.empty())
        panic("finalize of empty program");
    if (!contains(entry_pc))
        panic("entry pc outside program");
    entryPC = entry_pc;
    finalized = true;
}

double
StaticProgram::avgBlockSize() const
{
    if (blocks.empty())
        return 0.0;
    return static_cast<double>(insts.size()) /
           static_cast<double>(blocks.size());
}

} // namespace smt
