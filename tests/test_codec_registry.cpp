// Tests for the pluggable codec registry and the policy-driven session API:
// spec parsing and its failure modes, registration rules, the "none"
// identity codec, per-layer CodecPolicy routing (including its
// ErrorBoundedCodec forwarding), adaptive no-op behaviour on unbounded
// codecs, and the headline determinism claim — a mixed per-layer policy
// training run is byte-identical across scheduler pool sizes and with or
// without a memory budget.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/jpegact.hpp"
#include "core/codec_registry.hpp"
#include "core/session.hpp"
#include "core/sz_codec.hpp"
#include "models/model_zoo.hpp"
#include "nn/conv2d.hpp"
#include "tensor/sched.hpp"
#include "util/test_util.hpp"

namespace ebct {
namespace {

using core::CodecParams;
using core::CodecPolicy;
using core::CodecRegistry;
using tensor::Shape;
using tensor::Tensor;

// --- Registry lookup and registration rules ---------------------------------------

TEST(CodecRegistry, BuiltinsAreRegistered) {
  auto& reg = CodecRegistry::instance();
  for (const char* name : {"sz", "lossless", "jpeg-act", "none", "policy"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  // list() is sorted and self-describing.
  const auto infos = reg.list();
  ASSERT_GE(infos.size(), 5u);
  bool saw_sz = false;
  for (const auto& info : infos) {
    if (info.name == "sz") {
      saw_sz = true;
      EXPECT_TRUE(info.error_bounded);
      EXPECT_FALSE(info.summary.empty());
    }
    if (info.name == "jpeg-act" || info.name == "lossless" || info.name == "none") {
      EXPECT_FALSE(info.error_bounded) << info.name;
    }
  }
  EXPECT_TRUE(saw_sz);
}

TEST(CodecRegistry, UnknownNameThrowsListingKnownCodecs) {
  try {
    CodecRegistry::instance().create("zstd");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("zstd"), std::string::npos);
    EXPECT_NE(msg.find("sz"), std::string::npos);  // lists what IS registered
  }
}

TEST(CodecRegistry, DuplicateRegistrationThrows) {
  auto& reg = CodecRegistry::instance();
  auto factory = [](const std::string&, const core::FrameworkConfig&) {
    return CodecRegistry::instance().create("none");
  };
  reg.register_codec({"test-dup", "first", "", false}, factory);
  EXPECT_THROW(reg.register_codec({"test-dup", "second", "", false}, factory),
               std::invalid_argument);
  EXPECT_TRUE(reg.contains("test-dup"));
}

TEST(CodecRegistry, InvalidNamesRejected) {
  auto& reg = CodecRegistry::instance();
  auto factory = [](const std::string&, const core::FrameworkConfig&) {
    return CodecRegistry::instance().create("none");
  };
  for (const char* bad : {"", "a:b", "a,b", "a b", "a=b", "a;b"}) {
    EXPECT_THROW(reg.register_codec({bad, "", "", false}, factory),
                 std::invalid_argument)
        << "'" << bad << "'";
  }
}

TEST(CodecRegistry, UserRegisteredCodecIsCreatable) {
  auto& reg = CodecRegistry::instance();
  reg.register_codec({"test-alias", "alias of none", "", false},
                     [](const std::string& params, const core::FrameworkConfig& fw) {
                       CodecParams p("test-alias", params);
                       p.finish();
                       return CodecRegistry::instance().create("none", fw);
                     });
  auto codec = reg.create("test-alias");
  Tensor t = testutil::random_tensor(Shape{256}, 9100);
  Tensor back = codec->decode(codec->encode("x", t));
  for (std::size_t i = 0; i < t.numel(); ++i) ASSERT_EQ(back[i], t[i]);
}

// --- Parameter parsing -------------------------------------------------------------

TEST(CodecParams, ParsesTypedValuesAndFlagsUnknownKeys) {
  const auto sz = CodecRegistry::instance().create("sz:eb=0.01,zero=none,mode=rel");
  EXPECT_EQ(sz->name(), "sz-error-bounded");
  const auto& cfg = dynamic_cast<core::SzActivationCodec&>(*sz).base_config();
  EXPECT_DOUBLE_EQ(cfg.error_bound, 0.01);
  EXPECT_EQ(cfg.zero_mode, sz::ZeroMode::kNone);
  EXPECT_EQ(cfg.bound_mode, sz::BoundMode::kRelative);
}

TEST(CodecParams, MalformedSpecsThrow) {
  auto& reg = CodecRegistry::instance();
  EXPECT_THROW(reg.create("sz:eb"), std::invalid_argument);          // no '='
  EXPECT_THROW(reg.create("sz:=3"), std::invalid_argument);          // empty key
  EXPECT_THROW(reg.create("sz:eb=1e-3,eb=1e-4"), std::invalid_argument);  // dup
  EXPECT_THROW(reg.create("sz:eb=abc"), std::invalid_argument);      // not a number
  EXPECT_THROW(reg.create("sz:eb=inf"), std::invalid_argument);      // not finite
  EXPECT_THROW(reg.create("sz:eb=nan"), std::invalid_argument);      // not finite
  EXPECT_THROW(reg.create("sz:eb=1e-3x"), std::invalid_argument);    // trailing junk
  EXPECT_THROW(reg.create("jpeg-act:quality=-1"), std::invalid_argument);  // negative uint
  EXPECT_THROW(reg.create("sz:frobnicate=1"), std::invalid_argument);  // unknown key
  EXPECT_THROW(reg.create("sz:zero=sometimes"), std::invalid_argument);
  EXPECT_THROW(reg.create("sz:mode=both"), std::invalid_argument);
  EXPECT_THROW(reg.create("lossless:level=9"), std::invalid_argument);  // takes none
  EXPECT_THROW(reg.create("none:x=1"), std::invalid_argument);
  EXPECT_THROW(reg.create("jpeg-act:quality=0"), std::invalid_argument);
  EXPECT_THROW(reg.create("jpeg-act:quality=101"), std::invalid_argument);
  EXPECT_THROW(reg.create("jpeg-act:q=50"), std::invalid_argument);
}

TEST(CodecParams, FrameworkDefaultsSeedTheSzFactory) {
  // "sz" with no parameters must reproduce exactly what the session
  // hard-wired before the registry: bootstrap bound and zero mode.
  core::FrameworkConfig fw;
  fw.bootstrap_error_bound = 5e-4;
  fw.zero_mode = sz::ZeroMode::kNone;
  const auto codec = CodecRegistry::instance().create("sz", fw);
  const auto& cfg = dynamic_cast<core::SzActivationCodec&>(*codec).base_config();
  EXPECT_DOUBLE_EQ(cfg.error_bound, 5e-4);
  EXPECT_EQ(cfg.zero_mode, sz::ZeroMode::kNone);
  // An explicit parameter beats the framework default.
  const auto codec2 = CodecRegistry::instance().create("sz:eb=1e-2", fw);
  EXPECT_DOUBLE_EQ(
      dynamic_cast<core::SzActivationCodec&>(*codec2).base_config().error_bound, 1e-2);
}

TEST(CodecParams, RetiredSzKeysAndValuesThrow) {
  // The spec grammar has no worker cap, no block size, no run-length zero
  // mode and no predictor choice: naming any of them throws instead of
  // being ignored, so an old spec cannot silently select something else.
  auto& reg = CodecRegistry::instance();
  EXPECT_THROW(reg.create("sz:zero=rle"), std::invalid_argument);
  EXPECT_THROW(reg.create("sz:threads=2"), std::invalid_argument);
  EXPECT_THROW(reg.create("sz:block=4096"), std::invalid_argument);
  EXPECT_THROW(reg.create("sz:predictor=lorenzo1d"), std::invalid_argument);
}

// --- "none" identity codec ---------------------------------------------------------

TEST(NoneCodec, RoundtripIsBitExact) {
  auto codec = CodecRegistry::instance().create("none");
  Tensor t = testutil::random_tensor(Shape::nchw(2, 3, 5, 7), 9101);
  const auto enc = codec->encode("layer", t);
  EXPECT_EQ(enc.bytes.size(), t.bytes());  // identity: no expansion either
  Tensor back = codec->decode(enc);
  ASSERT_EQ(back.shape(), t.shape());
  for (std::size_t i = 0; i < t.numel(); ++i) ASSERT_EQ(back[i], t[i]);
}

// --- CodecPolicy -------------------------------------------------------------------

TEST(CodecPolicyTest, GlobMatching) {
  EXPECT_TRUE(CodecPolicy::glob_match("*", ""));
  EXPECT_TRUE(CodecPolicy::glob_match("*", "anything"));
  EXPECT_TRUE(CodecPolicy::glob_match("conv*", "conv1"));
  EXPECT_FALSE(CodecPolicy::glob_match("conv*", "layer1.0.conv1"));
  EXPECT_TRUE(CodecPolicy::glob_match("*conv*", "layer1.0.conv1"));
  EXPECT_TRUE(CodecPolicy::glob_match("layer1.*.conv2", "layer1.0.conv2"));
  EXPECT_FALSE(CodecPolicy::glob_match("layer1.*.conv2", "layer2.0.conv2"));
  EXPECT_TRUE(CodecPolicy::glob_match("exact", "exact"));
  EXPECT_FALSE(CodecPolicy::glob_match("exact", "exactly"));
  EXPECT_FALSE(CodecPolicy::glob_match("", "x"));
  EXPECT_TRUE(CodecPolicy::glob_match("", ""));
}

TEST(CodecPolicyTest, RoutesByFirstMatchingRule) {
  const auto policy_codec =
      CodecRegistry::instance().create("policy:stem*=none;*conv*=sz:eb=1e-3;*=lossless");
  auto& policy = dynamic_cast<CodecPolicy&>(*policy_codec);
  EXPECT_EQ(policy.codec_for("stem.conv").name(), "none");  // first rule wins
  EXPECT_EQ(policy.codec_for("layer1.0.conv2").name(), "sz-error-bounded");
  EXPECT_EQ(policy.codec_for("fc").name(), "lossless-rle-huffman");

  // Round trip through the dispatching interface: the lossless route is
  // exact, the sz route is within its bound.
  Tensor t = testutil::relu_like_tensor(Shape::nchw(1, 4, 8, 8), 9102, 0.5);
  Tensor exact = policy.decode(policy.encode("fc", t));
  for (std::size_t i = 0; i < t.numel(); ++i) ASSERT_EQ(exact[i], t[i]);
  Tensor lossy = policy.decode(policy.encode("layer1.0.conv2", t));
  for (std::size_t i = 0; i < t.numel(); ++i) ASSERT_NEAR(lossy[i], t[i], 1e-3 * 1.01);
}

TEST(CodecPolicyTest, UnmatchedLayerThrows) {
  const auto policy_codec = CodecRegistry::instance().create("policy:conv*=sz");
  Tensor t(Shape{16});
  EXPECT_THROW(policy_codec->encode("fc1", t), std::invalid_argument);
}

TEST(CodecPolicyTest, SpecParsingErrors) {
  auto& reg = CodecRegistry::instance();
  EXPECT_THROW(reg.create("policy"), std::invalid_argument);       // no rules
  EXPECT_THROW(reg.create("policy:conv1"), std::invalid_argument);  // no '='
  EXPECT_THROW(reg.create("policy:*=zstd"), std::invalid_argument);  // unknown member
  EXPECT_THROW(reg.create("policy:*=policy:*=sz"), std::invalid_argument);  // nesting
  // min_bytes: strict digits, and the threshold alone is not a policy.
  EXPECT_THROW(reg.create("policy:min_bytes=4096"), std::invalid_argument);
  EXPECT_THROW(reg.create("policy:min_bytes=4k,*=sz"), std::invalid_argument);
  EXPECT_THROW(reg.create("policy:min_bytes=,*=sz"), std::invalid_argument);
}

TEST(CodecPolicyTest, MinBytesThresholdStoresSmallActivationsRaw) {
  const auto policy_codec = CodecRegistry::instance().create(
      "policy:min_bytes=4096,stem*=none;*=sz:eb=1e-3");
  auto& policy = dynamic_cast<CodecPolicy&>(*policy_codec);
  EXPECT_EQ(policy.min_bytes(), 4096u);

  // 2*2*4*4 floats = 256 bytes < 4096: raw regardless of the matched rule.
  Tensor small = testutil::relu_like_tensor(Shape::nchw(2, 2, 4, 4), 9103, 0.5);
  const auto enc_small = policy.encode("layer1.conv", small);
  EXPECT_EQ(enc_small.bytes.size(), small.bytes());  // identity payload
  Tensor back = policy.decode(enc_small);
  for (std::size_t i = 0; i < small.numel(); ++i) ASSERT_EQ(back[i], small[i]);

  // 2*8*16*16 floats = 16 KB >= 4096: the glob rules route as usual.
  Tensor big = testutil::relu_like_tensor(Shape::nchw(2, 8, 16, 16), 9104, 0.5);
  const auto enc_big = policy.encode("layer1.conv", big);
  Tensor lossy = policy.decode(enc_big);
  for (std::size_t i = 0; i < big.numel(); ++i)
    ASSERT_NEAR(lossy[i], big[i], 1e-3 * 1.01);
  // ...including the exempt-stem rule composing with the threshold.
  const auto enc_stem = policy.encode("stem.conv", big);
  EXPECT_EQ(enc_stem.bytes.size(), big.bytes());
}

TEST(CodecPolicyTest, BracketedSizeWindowRuleThrows) {
  // Rules route by layer name only: a per-rule size window is not part of
  // the spec grammar, so its '=' splits the rule into a bad codec spec.
  auto& reg = CodecRegistry::instance();
  EXPECT_THROW(reg.create("policy:*conv*[min_bytes=4096]=sz;*=lossless"),
               std::invalid_argument);
  EXPECT_THROW(reg.create("policy:*conv*[min_bytes=4096,max_bytes=65536]=sz;*=lossless"),
               std::invalid_argument);
}

TEST(CodecPolicyTest, InvariantOnlyWithSameCandidateRules) {
  // Identical candidate rule lists (same globs match both names) and an
  // invariant member at every candidate -> invariant.
  const auto same = CodecRegistry::instance().create(
      "policy:*head*=sz:eb=1e-3;*=lossless");
  auto& sp = dynamic_cast<CodecPolicy&>(*same);
  EXPECT_TRUE(sp.encoding_layer_invariant("block.head.a", "block.head.b"));
  // Different candidate lists (one name also matches an earlier rule) ->
  // not invariant.
  const auto mixed = CodecRegistry::instance().create(
      "policy:*special*=none;*head*=sz:eb=1e-3;*=lossless");
  auto& mp = dynamic_cast<CodecPolicy&>(*mixed);
  EXPECT_FALSE(mp.encoding_layer_invariant("special.head.a", "block.head.b"));
}

TEST(CodecPolicyTest, ForwardsBoundsOnlyToErrorBoundedMembers) {
  const auto policy_codec =
      CodecRegistry::instance().create("policy:*conv*=sz:eb=1e-3;*=lossless");
  auto& policy = dynamic_cast<CodecPolicy&>(*policy_codec);
  EXPECT_TRUE(policy.error_bounded());  // has an sz member

  policy.set_layer_bound("layer1.0.conv1", 2e-2);
  policy.set_layer_bound("fc", 2e-2);  // routed to lossless: silently ignored
  EXPECT_DOUBLE_EQ(policy.layer_bound("layer1.0.conv1"), 2e-2);
  EXPECT_DOUBLE_EQ(policy.layer_bound("other.conv"), 1e-3);  // sz base bound
  EXPECT_DOUBLE_EQ(policy.layer_bound("fc"), 0.0);           // unbounded route

  // A policy with no error-bounded member reports itself unbounded, so the
  // adaptive scheme disables rather than programming a black hole.
  const auto plain = CodecRegistry::instance().create("policy:*=lossless");
  EXPECT_FALSE(dynamic_cast<CodecPolicy&>(*plain).error_bounded());
}

// --- AdaptiveScheme on non-error-bounded codecs ------------------------------------

TEST(AdaptiveSchemeCapability, NoOpOnUnboundedCodec) {
  baselines::JpegActCodec jpeg(50);
  core::FrameworkConfig fw;
  core::AdaptiveScheme scheme(fw, &jpeg);
  EXPECT_FALSE(scheme.active());
  EXPECT_FALSE(scheme.should_update(0));  // never fires

  tensor::Rng rng(9103);
  nn::Network net("n");
  net.add(std::make_unique<nn::Conv2d>("conv1", nn::Conv2dSpec{1, 2, 3, 1, 1}, rng));
  scheme.update(net, 4);  // must be a harmless no-op
  EXPECT_TRUE(scheme.last_bounds().empty());
  EXPECT_TRUE(scheme.last_statistics().empty());
}

TEST(AdaptiveSchemeCapability, RelativeBoundModeDisablesScheme) {
  // The scheme's Eq. 9 bounds are absolute; a relative-mode sz codec would
  // silently rescale them per layer, so it must report itself unbounded.
  const auto rel = CodecRegistry::instance().create("sz:eb=1e-2,mode=rel");
  core::FrameworkConfig fw;
  core::AdaptiveScheme scheme(fw, rel.get());
  EXPECT_FALSE(scheme.active());
  // And a policy routing through it inherits the verdict.
  const auto policy = CodecRegistry::instance().create("policy:*=sz:mode=rel");
  EXPECT_FALSE(dynamic_cast<CodecPolicy&>(*policy).error_bounded());
}

TEST(SessionCodecSpec, EnvOverrideCustomIsRejected) {
  // EBCT_CODEC swaps codecs; it cannot conjure a caller-installed store.
  // Accepting it would silently train through the network's fallback raw
  // store with no codec, no scheme and no record of the substitution.
  const char* prev = std::getenv("EBCT_CODEC");
  const std::string saved = prev ? prev : "";
  ::setenv("EBCT_CODEC", "custom", 1);
  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 4;
  mcfg.width_multiplier = 0.125;
  auto net = models::make_resnet18(mcfg);
  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_hw = 16;
  dspec.train_per_class = 8;
  data::SyntheticImageDataset ds(dspec);
  data::DataLoader loader(ds, 4, true, true);
  core::SessionConfig cfg;
  EXPECT_THROW(core::TrainingSession(*net, loader, cfg), std::invalid_argument);
  if (prev != nullptr) {
    ::setenv("EBCT_CODEC", saved.c_str(), 1);
  } else {
    ::unsetenv("EBCT_CODEC");
  }
}

TEST(AdaptiveSchemeCapability, ActiveOnErrorBoundedPolicy) {
  const auto policy = CodecRegistry::instance().create("policy:*conv*=sz;*=lossless");
  core::FrameworkConfig fw;
  core::AdaptiveScheme scheme(fw, policy.get());
  EXPECT_TRUE(scheme.active());
  EXPECT_TRUE(scheme.should_update(0));
}

// --- Mixed-policy training: byte-identical across pool sizes and budgets ----------

std::vector<double> train_policy_losses(int pool_threads, std::size_t budget_bytes) {
  tensor::sched::set_num_threads(pool_threads);
  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 4;
  mcfg.width_multiplier = 0.25;
  mcfg.seed = 21;
  auto net = models::make_resnet18(mcfg);

  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_hw = 16;
  dspec.train_per_class = 32;
  dspec.seed = 501;
  data::SyntheticImageDataset ds(dspec);
  data::DataLoader loader(ds, 8, true, true, 17);

  core::SessionConfig cfg;
  // Mixed per-layer policy: the residual stacks' convs ride sz, everything
  // else (stem conv included) rides lossless — both routes are exercised
  // on every iteration.
  cfg.framework.codec = "policy:layer*=sz:eb=1e-3;*=lossless";
  cfg.framework.active_factor_w = 4;
  cfg.framework.memory_budget_bytes = budget_bytes;
  cfg.base_lr = 0.05;
  core::TrainingSession session(*net, loader, cfg);
  if (session.codec_spec() != cfg.framework.codec) return {};  // EBCT_CODEC override

  std::vector<double> losses;
  session.run(8, [&](const core::IterationRecord& rec) {
    EXPECT_TRUE(std::isfinite(rec.loss));
    EXPECT_TRUE(rec.adaptive_active);  // the sz members keep the scheme live
    losses.push_back(rec.loss);
  });
  return losses;
}

TEST(CodecPolicyTraining, ByteIdenticalAcrossPoolSizesAndBudgets) {
  const int prev_threads = tensor::sched::num_threads();
  const std::vector<double> ref = train_policy_losses(1, 0);
  if (ref.empty()) {
    tensor::sched::set_num_threads(prev_threads);
    GTEST_SKIP() << "EBCT_CODEC override active";
  }
  // 600 KB sits well below this run's unbudgeted stash peak, forcing
  // eviction and spill traffic without degenerating to thrash.
  for (const int pool : {1, 2, 4}) {
    for (const std::size_t budget : {std::size_t{0}, std::size_t{600 * 1024}}) {
      if (pool == 1 && budget == 0) continue;  // the reference itself
      const std::vector<double> got = train_policy_losses(pool, budget);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(got[i], ref[i]) << "pool " << pool << " budget " << budget
                                  << " iter " << i;
      }
    }
  }
  tensor::sched::set_num_threads(prev_threads);
}

}  // namespace
}  // namespace ebct
