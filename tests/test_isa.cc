/**
 * @file
 * Unit tests for the synthetic ISA: op classes, static instructions,
 * basic blocks and the program dictionary.
 */

#include <gtest/gtest.h>

#include "isa/opcode.hh"
#include "isa/program.hh"

namespace smt
{
namespace
{

TEST(OpClassTest, ControlClassification)
{
    EXPECT_TRUE(isControl(OpClass::CondBranch));
    EXPECT_TRUE(isControl(OpClass::Jump));
    EXPECT_TRUE(isControl(OpClass::CallDirect));
    EXPECT_TRUE(isControl(OpClass::Return));
    EXPECT_TRUE(isControl(OpClass::JumpIndirect));
    EXPECT_FALSE(isControl(OpClass::IntAlu));
    EXPECT_FALSE(isControl(OpClass::Load));
}

TEST(OpClassTest, ConditionalOnlyCondBranch)
{
    EXPECT_TRUE(isConditional(OpClass::CondBranch));
    EXPECT_FALSE(isConditional(OpClass::Jump));
    EXPECT_FALSE(isConditional(OpClass::Return));
}

TEST(OpClassTest, UnconditionalControl)
{
    EXPECT_TRUE(isUnconditionalControl(OpClass::Jump));
    EXPECT_TRUE(isUnconditionalControl(OpClass::Return));
    EXPECT_FALSE(isUnconditionalControl(OpClass::CondBranch));
    EXPECT_FALSE(isUnconditionalControl(OpClass::IntAlu));
}

TEST(OpClassTest, MemoryClassification)
{
    EXPECT_TRUE(isMemory(OpClass::Load));
    EXPECT_TRUE(isMemory(OpClass::Store));
    EXPECT_FALSE(isMemory(OpClass::IntAlu));
}

TEST(StaticInstTest, PredicatesAndNextPc)
{
    StaticInst si;
    si.pc = 0x1000;
    si.op = OpClass::CallDirect;
    si.target = 0x2000;
    EXPECT_TRUE(si.isControl());
    EXPECT_TRUE(si.isCall());
    EXPECT_FALSE(si.isReturn());
    EXPECT_EQ(si.nextPc(), 0x1004u);
    EXPECT_NE(si.toString().find("call"), std::string::npos);
}

TEST(BasicBlockTest, Geometry)
{
    BasicBlock bb;
    bb.startPC = 0x1000;
    bb.numInsts = 5;
    EXPECT_EQ(bb.endPC(), 0x1014u);
    EXPECT_EQ(bb.lastPC(), 0x1010u);
    EXPECT_TRUE(bb.contains(0x1000));
    EXPECT_TRUE(bb.contains(0x1010));
    EXPECT_FALSE(bb.contains(0x1014));
    EXPECT_FALSE(bb.contains(0xfff));
}

StaticProgram
makeProgram()
{
    StaticProgram prog("test", 0x1000);
    prog.addBlock(3, 0)[2].op = OpClass::CondBranch;
    prog.addBlock(2, 0)[1].op = OpClass::Return;
    prog.finalize(0x1000);
    return prog;
}

TEST(StaticProgramTest, LayoutIsContiguous)
{
    StaticProgram prog = makeProgram();
    EXPECT_EQ(prog.numInsts(), 5u);
    EXPECT_EQ(prog.numBlocks(), 2u);
    EXPECT_EQ(prog.base(), 0x1000u);
    EXPECT_EQ(prog.limit(), 0x1000u + 5 * 4);
    EXPECT_EQ(prog.block(1).startPC, 0x100cu);
    EXPECT_EQ(prog.lookup(0x1008)->blockIndex, 0u);
    EXPECT_EQ(prog.lookup(0x100c)->blockIndex, 1u);
}

TEST(StaticProgramTest, DictionaryLookup)
{
    StaticProgram prog = makeProgram();
    const StaticInst *si = prog.lookup(0x1008);
    ASSERT_NE(si, nullptr);
    EXPECT_EQ(si->op, OpClass::CondBranch);
    EXPECT_EQ(si->pc, 0x1008u);
    EXPECT_EQ(prog.lookup(0x0ffc), nullptr);
    EXPECT_EQ(prog.lookup(prog.limit()), nullptr);
    EXPECT_EQ(prog.lookup(0x1002), nullptr); // misaligned
}

TEST(StaticProgramTest, AvgBlockSize)
{
    StaticProgram prog = makeProgram();
    EXPECT_DOUBLE_EQ(prog.avgBlockSize(), 2.5);
}

TEST(StaticProgramTest, FunctionMetadata)
{
    StaticProgram prog = makeProgram();
    EXPECT_EQ(prog.numFunctions(), 1u);
    EXPECT_EQ(prog.function(0).entryPC, 0x1000u);
    EXPECT_EQ(prog.function(0).numBlocks, 2u);
}

} // namespace
} // namespace smt
