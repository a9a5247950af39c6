// Layer cost arithmetic and the layer -> kernel lowering.
#include <gtest/gtest.h>

#include "dnn/layer.h"
#include "dnn/model.h"

namespace daris::dnn {
namespace {

TEST(Layers, Conv2dFlops) {
  // 3x3 conv, 56x56, 64->64: 2 * 56^2 * 64 * 64 * 9.
  const LayerDesc l = conv2d("c", 56, 64, 64, 3);
  EXPECT_DOUBLE_EQ(l.flops, 2.0 * 56 * 56 * 64.0 * 64.0 * 9.0);
  EXPECT_DOUBLE_EQ(l.out_elems, 56.0 * 56 * 64);
  EXPECT_DOUBLE_EQ(l.weight_bytes, 9.0 * 64 * 64 * 4);
}

TEST(Layers, Conv2dStrideHalvesOutput) {
  const LayerDesc l = conv2d("c", 56, 64, 128, 3, 2);
  EXPECT_DOUBLE_EQ(l.out_elems, 28.0 * 28 * 128);
  EXPECT_DOUBLE_EQ(l.flops, 2.0 * 28 * 28 * 128.0 * 64.0 * 9.0);
}

TEST(Layers, RectConvMatchesSquareDecomposition) {
  // A 1x7 followed by 7x1 at the same width has the same FLOPs as two
  // 7-element convs, which is less than one 7x7 (the Inception trick).
  const LayerDesc a = conv2d_rect("a", 17, 128, 128, 1, 7);
  const LayerDesc b = conv2d_rect("b", 17, 128, 128, 7, 1);
  const LayerDesc full = conv2d("f", 17, 128, 128, 7);
  EXPECT_LT(a.flops + b.flops, full.flops);
  EXPECT_DOUBLE_EQ(a.flops, b.flops);
}

TEST(Layers, PoolIsCheapAndMemoryHeavy) {
  const LayerDesc p = pool2d("p", 112, 64, 3, 2);
  const LayerDesc c = conv2d("c", 112, 64, 64, 3, 2);
  EXPECT_LT(p.flops, c.flops / 10.0);
  EXPECT_GT(p.act_bytes, 0.0);
  EXPECT_DOUBLE_EQ(p.out_elems, 56.0 * 56 * 64);
}

TEST(Layers, FcShape) {
  const LayerDesc f = fc("fc", 512, 1000);
  EXPECT_DOUBLE_EQ(f.flops, 2.0 * 512 * 1000);
  EXPECT_DOUBLE_EQ(f.out_elems, 1000.0);
  EXPECT_DOUBLE_EQ(f.weight_bytes, 512.0 * 1000 * 4);
}

TEST(Layers, UpconvDoublesResolution) {
  const LayerDesc u = upconv2x("u", 14, 1024, 512);
  EXPECT_DOUBLE_EQ(u.out_elems, 28.0 * 28 * 512);
}

TEST(Layers, GlobalPoolReducesToChannels) {
  const LayerDesc g = global_pool("g", 7, 512);
  EXPECT_DOUBLE_EQ(g.out_elems, 512.0);
}

TEST(Layers, ConcatAndResidualAreMemoryOnly) {
  const LayerDesc cat = concat("cat", 56, 512);
  const LayerDesc add = residual_add("add", 56, 256);
  // bytes per flop far above any conv.
  EXPECT_GT(cat.act_bytes / cat.flops, 1.0);
  EXPECT_GT(add.act_bytes / add.flops, 1.0);
}

TEST(Lowering, WorkProportionalToFlops) {
  NetworkDef net;
  net.name = "t";
  StageDef s{"s", {conv2d("a", 56, 64, 64, 3), conv2d("b", 56, 64, 64, 3)}};
  net.stages.push_back(s);
  LoweringParams p;
  const CompiledModel m = lower(net, 1, p);
  ASSERT_EQ(m.kernel_count(), 2u);
  EXPECT_DOUBLE_EQ(m.stages[0].kernels[0].work, m.stages[0].kernels[1].work);
  EXPECT_NEAR(m.stages[0].kernels[0].work,
              net.stages[0].layers[0].flops / kFlopsPerSmUs, 1e-9);
}

TEST(Lowering, BatchScalesWorkAndParallelism) {
  NetworkDef net;
  net.name = "t";
  net.stages.push_back(StageDef{"s", {conv2d("a", 28, 128, 128, 3)}});
  LoweringParams p;
  p.batch_work_overhead = 0.0;
  const CompiledModel m1 = lower(net, 1, p);
  const CompiledModel m8 = lower(net, 8, p);
  EXPECT_NEAR(m8.stages[0].kernels[0].work,
              8.0 * m1.stages[0].kernels[0].work, 1e-9);
  EXPECT_NEAR(m8.stages[0].kernels[0].parallelism,
              std::min(8.0 * m1.stages[0].kernels[0].parallelism,
                       kMaxParallelismSms),
              1e-9);
}

TEST(Lowering, BatchOverheadInflatesPerSampleWork) {
  NetworkDef net;
  net.name = "t";
  net.stages.push_back(StageDef{"s", {conv2d("a", 28, 128, 128, 3)}});
  LoweringParams p;
  p.batch_work_overhead = 0.2;
  const CompiledModel m1 = lower(net, 1, p);
  const CompiledModel m4 = lower(net, 4, p);
  const double per_sample1 = m1.total_work();
  const double per_sample4 = m4.total_work() / 4.0;
  EXPECT_NEAR(per_sample4 / per_sample1, 1.0 + 0.2 * 3.0 / 4.0, 1e-9);
}

TEST(Lowering, BatchingAmortizesWeightTraffic) {
  NetworkDef net;
  net.name = "t";
  net.stages.push_back(StageDef{"s", {conv2d("a", 7, 512, 512, 3)}});
  LoweringParams p;
  p.batch_work_overhead = 0.0;
  const CompiledModel m1 = lower(net, 1, p);
  const CompiledModel m32 = lower(net, 32, p);
  // Weight-dominated layer: per-sample memory intensity drops with batch.
  EXPECT_LT(m32.stages[0].kernels[0].mem_intensity,
            m1.stages[0].kernels[0].mem_intensity);
}

TEST(Lowering, ParallelismClampedToBounds) {
  NetworkDef net;
  net.name = "t";
  net.stages.push_back(StageDef{"s", {fc("tiny", 8, 4)}});
  net.stages.push_back(StageDef{"s2", {conv2d("huge", 224, 64, 64, 3)}});
  const CompiledModel m = lower(net, 64, LoweringParams{});
  EXPECT_GE(m.stages[0].kernels[0].parallelism, 1.0);
  EXPECT_DOUBLE_EQ(m.stages[1].kernels[0].parallelism, kMaxParallelismSms);
}

TEST(Lowering, StageStructurePreserved) {
  NetworkDef net;
  net.name = "t";
  net.stages.push_back(StageDef{"first", {conv2d("a", 56, 8, 8, 3)}});
  net.stages.push_back(
      StageDef{"second", {conv2d("b", 28, 8, 8, 3), fc("c", 64, 10)}});
  const CompiledModel m = lower(net, 1, LoweringParams{});
  ASSERT_EQ(m.stage_count(), 2u);
  EXPECT_EQ(m.stages[0].name, "first");
  EXPECT_EQ(m.stages[0].kernels.size(), 1u);
  EXPECT_EQ(m.stages[1].kernels.size(), 2u);
}

TEST(NetworkDef, Accounting) {
  NetworkDef net;
  net.name = "t";
  net.stages.push_back(StageDef{"s", {conv2d("a", 56, 8, 8, 3)}});
  net.stages.push_back(StageDef{"s2", {fc("b", 10, 10), fc("c", 10, 10)}});
  EXPECT_EQ(net.layer_count(), 3u);
  EXPECT_DOUBLE_EQ(net.total_flops(), net.stages[0].layers[0].flops +
                                          2.0 * net.stages[1].layers[0].flops);
}

}  // namespace
}  // namespace daris::dnn
