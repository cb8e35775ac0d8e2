#include "core/codec_registry.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/env.hpp"

namespace ebct::core {

// ---------------------------------------------------------------------------
// CodecParams
// ---------------------------------------------------------------------------

CodecParams::CodecParams(std::string codec, const std::string& params)
    : codec_(std::move(codec)) {
  std::size_t pos = 0;
  while (pos < params.size()) {
    std::size_t end = params.find(',', pos);
    if (end == std::string::npos) end = params.size();
    const std::string item = params.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) {
      throw std::invalid_argument(codec_ + ": empty parameter in '" + params + "'");
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument(codec_ + ": expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    if (values_.count(key) != 0) {
      throw std::invalid_argument(codec_ + ": duplicate parameter '" + key + "'");
    }
    values_[key] = item.substr(eq + 1);
    consumed_[key] = false;
  }
}

std::string CodecParams::get_string(const std::string& key, const std::string& fallback) {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_[key] = true;
  return it->second;
}

double CodecParams::get_double(const std::string& key, double fallback) {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_[key] = true;
  return parse_double(codec_ + ": parameter " + key, it->second);
}

std::uint32_t CodecParams::get_uint(const std::string& key, std::uint32_t fallback) {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_[key] = true;
  const std::string name = codec_ + ": parameter " + key;
  const std::size_t parsed = parse_size(name.c_str(), it->second.c_str());
  if (parsed > 0xffffffffull) {
    throw std::invalid_argument(name + ": '" + it->second + "' exceeds 2^32-1");
  }
  return static_cast<std::uint32_t>(parsed);
}

void CodecParams::finish() const {
  for (const auto& [key, used] : consumed_) {
    if (!used) {
      throw std::invalid_argument(codec_ + ": unknown parameter '" + key + "'");
    }
  }
}

// ---------------------------------------------------------------------------
// CodecRegistry
// ---------------------------------------------------------------------------

CodecRegistry& CodecRegistry::instance() {
  // The hooks register against the object directly (never back through
  // instance()), so first use — from any thread — builds the full table
  // inside this thread-safe static initialization.
  static CodecRegistry& reg = *[]() {
    static CodecRegistry r;
    r.ensure_builtins();
    return &r;
  }();
  return reg;
}

void CodecRegistry::ensure_builtins() {
  if (builtins_registered_) return;
  builtins_registered_ = true;
  detail::register_sz_codec(*this);
  detail::register_lossless_codec(*this);
  detail::register_jpegact_codec(*this);
  detail::register_none_codec(*this);
  detail::register_policy_codec(*this);
}

void CodecRegistry::register_codec(CodecInfo info, CodecFactory factory) {
  if (info.name.empty() ||
      info.name.find_first_of(":,;= \t") != std::string::npos) {
    throw std::invalid_argument("CodecRegistry: invalid codec name '" + info.name + "'");
  }
  if (!factory) {
    throw std::invalid_argument("CodecRegistry: null factory for '" + info.name + "'");
  }
  if (factories_.count(info.name) != 0) {
    throw std::invalid_argument("CodecRegistry: codec '" + info.name +
                                "' is already registered");
  }
  const std::string name = info.name;
  factories_.emplace(name, std::make_pair(std::move(info), std::move(factory)));
}

std::pair<std::string, std::string> CodecRegistry::split_spec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) return {spec, ""};
  return {spec.substr(0, colon), spec.substr(colon + 1)};
}

std::shared_ptr<nn::ActivationCodec> CodecRegistry::create(
    const std::string& spec, const FrameworkConfig& fw) const {
  const auto [name, params] = split_spec(spec);
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string known;
    for (const auto& [n, f] : factories_) {
      (void)f;
      known += known.empty() ? n : ", " + n;
    }
    throw std::invalid_argument("CodecRegistry: unknown codec '" + name +
                                "' (registered: " + known + ")");
  }
  return it->second.second(params, fw);
}

bool CodecRegistry::contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

std::vector<CodecInfo> CodecRegistry::list() const {
  std::vector<CodecInfo> out;
  out.reserve(factories_.size());
  for (const auto& [name, entry] : factories_) {
    (void)name;
    out.push_back(entry.first);
  }
  return out;
}

// ---------------------------------------------------------------------------
// "none": identity codec — raw bytes in, raw bytes out. The registry face
// of the stock-framework baseline, and the building block for policy rules
// that exempt layers from compression (the paper's 1x1-kernel caveat).
// ---------------------------------------------------------------------------

namespace {

class NoneCodec : public nn::ActivationCodec {
 public:
  nn::EncodedActivation encode(const std::string& layer,
                               const tensor::Tensor& act) override {
    nn::EncodedActivation enc;
    enc.layer = layer;
    enc.shape = act.shape();
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(act.data());
    enc.bytes.assign(bytes, bytes + act.bytes());
    return enc;
  }

  tensor::Tensor decode(const nn::EncodedActivation& enc) override {
    tensor::Tensor out(enc.shape);
    if (enc.bytes.size() != out.bytes()) {
      throw std::invalid_argument("none codec: payload size does not match shape");
    }
    std::memcpy(out.data(), enc.bytes.data(), enc.bytes.size());
    return out;
  }

  std::string name() const override { return "none"; }

  /// Identity bytes depend on nothing but the tensor — trivially invariant
  /// across layer names (lets shared-stash dedup engage on none routes).
  bool encoding_layer_invariant(const std::string&, const std::string&) const override {
    return true;
  }
};

}  // namespace

void detail::register_none_codec(CodecRegistry& reg) {
  reg.register_codec(
      {"none", "identity (raw bytes) — the uncompressed baseline", "", false},
      [](const std::string& params, const FrameworkConfig&) {
        CodecParams p("none", params);
        p.finish();  // takes no parameters
        return std::make_shared<NoneCodec>();
      });
}

// ---------------------------------------------------------------------------
// CodecPolicy
// ---------------------------------------------------------------------------

CodecPolicy::CodecPolicy(std::vector<Rule> rules, std::size_t min_bytes)
    : rules_(std::move(rules)), min_bytes_(min_bytes) {
  if (rules_.empty()) {
    throw std::invalid_argument("CodecPolicy: at least one rule is required");
  }
  for (const Rule& r : rules_) {
    if (!r.codec) {
      throw std::invalid_argument("CodecPolicy: null codec for pattern '" +
                                  r.pattern + "'");
    }
  }
  if (min_bytes_ > 0) threshold_codec_ = std::make_shared<NoneCodec>();
}

bool CodecPolicy::glob_match(const std::string& pattern, const std::string& text) {
  // Iterative '*' glob with backtracking to the most recent star.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (p < pattern.size() && pattern[p] == text[t]) {
      ++p;
      ++t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

nn::ActivationCodec& CodecPolicy::codec_for(const std::string& layer) const {
  for (const Rule& r : rules_) {
    if (glob_match(r.pattern, layer)) return *r.codec;
  }
  throw std::invalid_argument("CodecPolicy: no rule matches layer '" + layer +
                              "' (add a trailing '*' catch-all)");
}

bool CodecPolicy::encoding_layer_invariant(const std::string& a,
                                           const std::string& b) const {
  std::vector<std::size_t> ca, cb;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (glob_match(rules_[i].pattern, a)) ca.push_back(i);
    if (glob_match(rules_[i].pattern, b)) cb.push_back(i);
  }
  if (ca.empty() || ca != cb) return false;
  for (const std::size_t i : ca) {
    if (!rules_[i].codec->encoding_layer_invariant(a, b)) return false;
  }
  return true;
}

nn::EncodedActivation CodecPolicy::encode(const std::string& layer,
                                          const tensor::Tensor& act) {
  if (min_bytes_ > 0 && act.bytes() < min_bytes_) {
    return threshold_codec_->encode(layer, act);
  }
  return codec_for(layer).encode(layer, act);
}

tensor::Tensor CodecPolicy::decode(const nn::EncodedActivation& enc) {
  // The size rule is a pure function of the recorded shape, so it selects
  // the identity codec exactly when encode() did.
  if (min_bytes_ > 0 && enc.shape.numel() * sizeof(float) < min_bytes_) {
    return threshold_codec_->decode(enc);
  }
  // The layer recorded at encode time pins the round trip to the codec
  // that produced the bytes.
  return codec_for(enc.layer).decode(enc);
}

std::map<std::string, double> CodecPolicy::last_ratios() const {
  std::map<std::string, double> merged;
  for (const Rule& r : rules_) {
    // insert() keeps the first (highest-priority) entry on key collisions.
    const auto ratios = r.codec->last_ratios();
    merged.insert(ratios.begin(), ratios.end());
  }
  return merged;
}

void CodecPolicy::set_layer_bound(const std::string& layer, double eb) {
  // Bounds land only on layers routed to an error-bounded member; for the
  // rest the install is a no-op, which is exactly the per-layer "adaptive
  // where it applies" semantics a mixed policy wants.
  for (const Rule& r : rules_) {
    if (!glob_match(r.pattern, layer)) continue;
    auto* eb_codec = dynamic_cast<nn::ErrorBoundedCodec*>(r.codec.get());
    if (eb_codec != nullptr && eb_codec->error_bounded()) {
      eb_codec->set_layer_bound(layer, eb);
    }
    return;
  }
}

double CodecPolicy::layer_bound(const std::string& layer) const {
  for (const Rule& r : rules_) {
    if (!glob_match(r.pattern, layer)) continue;
    auto* eb_codec = dynamic_cast<const nn::ErrorBoundedCodec*>(r.codec.get());
    if (eb_codec != nullptr && eb_codec->error_bounded()) {
      return eb_codec->layer_bound(layer);
    }
    return 0.0;  // routed to an unbounded codec
  }
  return 0.0;
}

bool CodecPolicy::error_bounded() const {
  for (const Rule& r : rules_) {
    auto* eb_codec = dynamic_cast<const nn::ErrorBoundedCodec*>(r.codec.get());
    if (eb_codec != nullptr && eb_codec->error_bounded()) return true;
  }
  return false;
}

void detail::register_policy_codec(CodecRegistry& reg) {
  reg.register_codec(
      {"policy",
       "per-layer routing: first glob pattern matching the layer name wins",
       "[min_bytes=<n>,]<pattern>=<spec>;... "
       "e.g. policy:min_bytes=4096,stem*=none;*conv*=sz;*=lossless",
       true},
      [&reg](const std::string& raw_params, const FrameworkConfig& fw) {
        std::string params = raw_params;
        // Optional leading size threshold, set off from the first rule by a
        // ',' (rules themselves never start with "min_bytes=" — '=' would
        // make it a pattern, and patterns with '=' are rejected below
        // anyway by the spec lookup failing loudly).
        std::size_t min_bytes = 0;
        const std::string kMin = "min_bytes=";
        if (params.rfind(kMin, 0) == 0) {
          const std::size_t comma = params.find(',');
          if (comma == std::string::npos) {
            throw std::invalid_argument(
                "policy: min_bytes=<n> must be followed by ',' and at least "
                "one pattern=spec rule");
          }
          const std::string digits = params.substr(kMin.size(), comma - kMin.size());
          if (digits.empty() ||
              digits.find_first_not_of("0123456789") != std::string::npos) {
            throw std::invalid_argument("policy: min_bytes expects a plain byte "
                                        "count, got '" + digits + "'");
          }
          min_bytes = static_cast<std::size_t>(std::stoull(digits));
          params = params.substr(comma + 1);
        }
        if (params.empty()) {
          throw std::invalid_argument("policy: expected <pattern>=<spec>;... rules");
        }
        std::vector<CodecPolicy::Rule> rules;
        std::size_t pos = 0;
        while (pos <= params.size()) {
          std::size_t end = params.find(';', pos);
          if (end == std::string::npos) end = params.size();
          const std::string item = params.substr(pos, end - pos);
          pos = end + 1;
          if (item.empty()) continue;  // tolerate a trailing ';'
          const std::size_t eq = item.find('=');
          if (eq == std::string::npos || eq == 0) {
            throw std::invalid_argument("policy: expected pattern=spec, got '" +
                                        item + "'");
          }
          const std::string pattern = item.substr(0, eq);
          const std::string spec = item.substr(eq + 1);
          if (CodecRegistry::split_spec(spec).first == "policy") {
            // ';' cannot nest: an inner policy's rules would have been
            // split by this loop. Compose CodecPolicy objects in code
            // for that.
            throw std::invalid_argument("policy: nested policy specs are not "
                                        "supported in string form");
          }
          rules.push_back({pattern, reg.create(spec, fw)});
        }
        return std::make_shared<CodecPolicy>(std::move(rules), min_bytes);
      });
}

}  // namespace ebct::core
