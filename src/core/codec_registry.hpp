#pragma once

/// \file codec_registry.hpp
/// Name-based codec construction: the single place a codec choice turns
/// from a config string into an nn::ActivationCodec instance. Every codec
/// in the tree registers a factory under a short name; sessions, benches,
/// examples and tests select one with a spec string
///
///   <name>[:<params>]       e.g. "sz", "sz:eb=1e-3,zero=none",
///                                "lossless", "jpeg-act:quality=50", "none"
///
/// and the composite
///
///   policy:<pattern>=<spec>;<pattern>=<spec>;...
///
/// which routes each layer to the first rule whose glob pattern ('*'
/// wildcard) matches the layer name — e.g.
/// "policy:*conv*=sz;*=lossless". The EBCT_CODEC environment variable
/// overrides the configured spec of a TrainingSession (see
/// core/session.hpp), so any training binary can be re-run under a
/// different codec without a rebuild.
///
/// Registration: each codec's own translation unit defines a
/// register_*_codec(CodecRegistry&) hook (declared in detail below) that
/// installs its factory; the registry calls every hook once on first use.
/// The explicit hook — rather than a static-initializer self-registration
/// object — is deliberate: ebct links as a static archive, and an archive
/// member with no referenced symbol is never pulled in, so its static
/// initializers never run. Out-of-tree codecs register at runtime through
/// the same public register_codec().

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "nn/activation_store.hpp"

namespace ebct::core {

/// Strict parser for a codec spec's parameter list: "k1=v1,k2=v2". Keys
/// must be unique and every key must be consumed by the factory — a typo'd
/// or unsupported key throws instead of silently configuring nothing
/// (the same fail-loud stance as the env parsing in session.cpp).
class CodecParams {
 public:
  /// Parse `params` (the part after the spec's first ':'; may be empty).
  /// `codec` names the codec for error messages. Throws
  /// std::invalid_argument on malformed input (missing '=', empty key,
  /// duplicate key).
  CodecParams(std::string codec, const std::string& params);

  bool has(const std::string& key) const { return values_.count(key) != 0; }

  /// Typed getters: return `fallback` when the key is absent, throw
  /// std::invalid_argument on an unparseable value. Each call marks the
  /// key consumed.
  std::string get_string(const std::string& key, const std::string& fallback);
  double get_double(const std::string& key, double fallback);
  std::uint32_t get_uint(const std::string& key, std::uint32_t fallback);

  /// Throw std::invalid_argument if any parsed key was never consumed —
  /// factories call this last so unknown parameters fail loudly.
  void finish() const;

  const std::string& codec() const { return codec_; }

 private:
  std::string codec_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> consumed_;
};

/// One registry entry's self-description, for --help output and docs.
struct CodecInfo {
  std::string name;
  std::string summary;      ///< one line: what it is
  std::string params_help;  ///< e.g. "eb=<abs bound>, mode=abs|rel"
  bool error_bounded = false;  ///< implements nn::ErrorBoundedCodec
};

/// Factory: `params` is the raw text after the first ':' of the spec
/// (empty when absent); `fw` carries the session-level defaults a codec
/// honours for parameters the spec leaves unset (the sz codec seeds its
/// error bound / zero mode / thread cap from it, exactly as the session
/// did before the registry existed).
using CodecFactory = std::function<std::shared_ptr<nn::ActivationCodec>(
    const std::string& params, const FrameworkConfig& fw)>;

class CodecRegistry {
 public:
  /// The process-wide registry, with every in-tree codec registered.
  static CodecRegistry& instance();

  /// Install a factory under `name`. Throws std::invalid_argument on a
  /// duplicate name or a name containing ':' / whitespace.
  void register_codec(CodecInfo info, CodecFactory factory);

  /// Build a codec from "name[:params]". Unknown names throw
  /// std::invalid_argument listing the registered names; parameter errors
  /// propagate from the factory.
  std::shared_ptr<nn::ActivationCodec> create(
      const std::string& spec, const FrameworkConfig& fw = {}) const;

  bool contains(const std::string& name) const;

  /// Registered codecs, sorted by name.
  std::vector<CodecInfo> list() const;

  /// Split "name[:params]" at the first ':' -> {name, params}.
  static std::pair<std::string, std::string> split_spec(const std::string& spec);

 private:
  CodecRegistry() = default;
  void ensure_builtins();

  bool builtins_registered_ = false;
  std::map<std::string, std::pair<CodecInfo, CodecFactory>> factories_;
};

/// Composite codec: routes each layer to the first rule whose glob pattern
/// matches the layer name ('*' matches any run of characters). encode()
/// dispatches on the layer being stashed, decode() on the layer recorded in
/// the EncodedActivation, so a round trip always uses the codec that
/// produced the bytes. Implements ErrorBoundedCodec by forwarding per-layer
/// bounds to the matched member when (and only when) that member is itself
/// error-bounded — a mixed policy gets adaptive bounds on its sz layers
/// while its lossless layers ignore them.
class CodecPolicy : public nn::ActivationCodec, public nn::ErrorBoundedCodec {
 public:
  struct Rule {
    std::string pattern;
    std::shared_ptr<nn::ActivationCodec> codec;
  };

  /// Throws std::invalid_argument on an empty rule list or a null codec.
  /// Rules are tried in order; a layer no rule matches throws
  /// std::invalid_argument at encode time (add a trailing "*" catch-all).
  ///
  /// `min_bytes` composes a size threshold with the glob rules: an
  /// activation smaller than this many raw bytes is stored raw (identity
  /// codec) regardless of which rule its layer matches — compressing a
  /// few-KB tensor buys nothing and costs a codec round trip. 0 disables
  /// the threshold. decode() applies the same size rule to the recorded
  /// shape, so round trips stay pinned to the codec that produced the
  /// bytes.
  explicit CodecPolicy(std::vector<Rule> rules, std::size_t min_bytes = 0);

  nn::EncodedActivation encode(const std::string& layer, const tensor::Tensor& act) override;
  tensor::Tensor decode(const nn::EncodedActivation& enc) override;
  std::string name() const override { return "policy"; }
  std::map<std::string, double> last_ratios() const override;

  void set_layer_bound(const std::string& layer, double eb) override;
  double layer_bound(const std::string& layer) const override;
  bool error_bounded() const override;  ///< true when any member is

  /// Invariant only when the two layers have the *same ordered list* of
  /// glob-matching rules and every one of those rules' members is itself
  /// invariant across the two names.
  bool encoding_layer_invariant(const std::string& a,
                                const std::string& b) const override;

  /// The codec `layer` routes to: the first rule whose glob matches.
  /// Fail-loud on no match.
  nn::ActivationCodec& codec_for(const std::string& layer) const;

  std::size_t min_bytes() const { return min_bytes_; }

  /// Simple glob: '*' matches any (possibly empty) substring; every other
  /// character matches itself. Exposed for tests.
  static bool glob_match(const std::string& pattern, const std::string& text);

 private:
  std::vector<Rule> rules_;
  std::size_t min_bytes_ = 0;
  std::shared_ptr<nn::ActivationCodec> threshold_codec_;  ///< identity, when min_bytes_ > 0
};

namespace detail {
// Built-in registration hooks, one per codec translation unit. Each
// installs that TU's factory; codec_registry.cpp calls them all once.
void register_sz_codec(CodecRegistry& reg);        // sz_codec.cpp
void register_lossless_codec(CodecRegistry& reg);  // baselines/lossless.cpp
void register_jpegact_codec(CodecRegistry& reg);   // baselines/jpegact.cpp
void register_none_codec(CodecRegistry& reg);      // codec_registry.cpp
void register_policy_codec(CodecRegistry& reg);    // codec_registry.cpp
}  // namespace detail

}  // namespace ebct::core
