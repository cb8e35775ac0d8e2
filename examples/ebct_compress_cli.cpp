// Command-line compressor for raw float32 data — the standalone face of
// the compression engines, usable on any binary dump of floats (activation
// snapshots, simulation output, ...).
//
// Usage:
//   ebct_compress_cli c <in.f32|-> <out.ebcs|-> [--codec=<name[:params]>] [--window=<elems>]
//   ebct_compress_cli d <in.ebcs|-> <out.f32|->
//   ebct_compress_cli c|d ... --server=<socket> [--tenant=<name>]
//   ebct_compress_cli --help
//
// "-" means stdin/stdout. Both modes stream through the chunked EBCS
// container (src/nn/streaming.hpp) in constant memory: input is read,
// encoded window by window, and written without ever buffering the whole
// payload. `c` defaults to --codec=sz:eb=1e-3; `d` accepts only EBCS input.
// --server routes the same stream through a running ebct_serve daemon
// instead of encoding locally.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/codec_registry.hpp"
#include "core/env.hpp"
#include "nn/streaming.hpp"
#include "serve/client.hpp"

using namespace ebct;

namespace {

constexpr const char* kDefaultSpec = "sz:eb=1e-3";

// Bytes pulled per read in the streaming paths — with the codec window this
// bounds resident memory (see --help text).
constexpr std::size_t kIoChunk = 256 * 1024;

std::FILE* open_input(const char* path) {
  if (std::strcmp(path, "-") == 0) return stdin;
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  return f;
}

std::FILE* open_output(const char* path) {
  if (std::strcmp(path, "-") == 0) return stdout;
  std::FILE* f = std::fopen(path, "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  return f;
}

void close_file(std::FILE* f) {
  if (f != stdin && f != stdout) {
    std::fclose(f);
  } else {
    std::fflush(f);
  }
}

void write_out(std::FILE* f, const void* data, std::size_t size) {
  if (std::fwrite(data, 1, size, f) != size) {
    std::fprintf(stderr, "write failed\n");
    std::exit(1);
  }
}

void print_usage(const char* argv0) {
  const std::size_t window = nn::kDefaultWindowElems;
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s c <in.f32|-> <out.ebcs|-> [--codec=<name[:params]>] [--window=<elems>]\n"
      "  %s d <in.ebcs|-> <out.f32|->\n"
      "  %s c|d ... --server=<socket> [--tenant=<name>]   (route via ebct_serve)\n"
      "\n'-' streams stdin/stdout. --codec defaults to %s. Both modes run in\n"
      "constant memory: resident bytes are bounded by ~3x the codec window\n"
      "(%zu floats = %zu KiB raw by default, tune with --window) plus one\n"
      "%zu KiB I/O chunk, independent of payload size.\n\nregistered codecs:\n",
      argv0, argv0, argv0, kDefaultSpec, window, window * sizeof(float) / 1024,
      kIoChunk / 1024);
  for (const auto& info : core::CodecRegistry::instance().list()) {
    std::fprintf(stderr, "  %-10s %s%s%s\n", info.name.c_str(), info.summary.c_str(),
                 info.params_help.empty() ? "" : "  params: ",
                 info.params_help.c_str());
  }
}

int run(int argc, char** argv);

}  // namespace

int main(int argc, char** argv) {
  // Registry/codec errors (typo'd --codec spec, bad parameters, malformed
  // --window, corrupt container) are invalid_argument/runtime_error throws —
  // turn them into a message + nonzero exit instead of a terminate() abort.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

namespace {

serve::PullReader file_reader(std::FILE* in) {
  return [in](std::uint8_t* buf, std::size_t cap) { return std::fread(buf, 1, cap, in); };
}

serve::PushWriter file_writer(std::FILE* out) {
  return [out](const std::uint8_t* data, std::size_t n) { write_out(out, data, n); };
}

int run(int argc, char** argv) {
  std::string codec_spec = kDefaultSpec;
  std::string server_sock;
  std::string tenant = "cli";
  std::size_t window = 0;  // 0 = codec default
  std::vector<const char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      print_usage(argv[0]);
      return 0;
    }
    if (std::strncmp(argv[i], "--codec=", 8) == 0) {
      codec_spec = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--server=", 9) == 0) {
      server_sock = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--tenant=", 9) == 0) {
      tenant = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--window=", 9) == 0) {
      window = core::parse_size("--window", argv[i] + 9);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (args.size() != 3) {
    print_usage(argv[0]);
    return 2;
  }
  const std::string mode = args[0];

  // Registry codecs seed this CLI's historical eb=1e-3 default (the
  // library's FrameworkConfig would seed 1e-4), so `--codec=sz` and the
  // default spec compress identically.
  core::FrameworkConfig fw;
  fw.bootstrap_error_bound = 1e-3;

  if (mode == "c") {
    std::FILE* in = open_input(args[1]);
    if (!server_sock.empty()) {
      // Remote: the daemon encodes.
      std::FILE* out = open_output(args[2]);
      serve::Client client(server_sock);
      const auto stats =
          client.encode(tenant, codec_spec, window, file_reader(in), file_writer(out));
      close_file(out);
      close_file(in);
      std::fprintf(stderr, "%llu bytes -> %llu bytes via %s @ %s\n",
                   static_cast<unsigned long long>(stats.bytes_in),
                   static_cast<unsigned long long>(stats.bytes_out), codec_spec.c_str(),
                   server_sock.c_str());
      return 0;
    }
    // Local: constant-memory chunked encode to EBCS. A bad spec throws
    // before the output is opened, so it never truncates an existing file.
    auto codec = core::CodecRegistry::instance().create(codec_spec, fw);
    std::FILE* out = open_output(args[2]);
    nn::StreamingEncoder enc(codec, codec_spec, window, file_writer(out));
    std::vector<std::uint8_t> buf(kIoChunk);
    std::size_t n;
    while ((n = std::fread(buf.data(), 1, buf.size(), in)) > 0) enc.feed_bytes(buf.data(), n);
    enc.finish();
    close_file(out);
    close_file(in);
    std::fprintf(stderr, "%llu floats -> %llu bytes (%.2fx) via %s\n",
                 static_cast<unsigned long long>(enc.floats_in()),
                 static_cast<unsigned long long>(enc.bytes_out()),
                 enc.floats_in() == 0
                     ? 0.0
                     : static_cast<double>(enc.floats_in() * sizeof(float)) /
                           static_cast<double>(enc.bytes_out()),
                 codec->name().c_str());
    return 0;
  }

  if (mode != "d") {
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
  }

  std::FILE* in = open_input(args[1]);
  if (!server_sock.empty()) {
    std::FILE* out = open_output(args[2]);
    serve::Client client(server_sock);
    const auto stats = client.decode(tenant, file_reader(in), file_writer(out));
    close_file(out);
    close_file(in);
    std::fprintf(stderr, "%llu bytes -> %llu bytes via %s\n",
                 static_cast<unsigned long long>(stats.bytes_in),
                 static_cast<unsigned long long>(stats.bytes_out), server_sock.c_str());
    return 0;
  }

  // EBCS is the only accepted input; anything else fails before a byte of
  // it sizes an allocation and before the output is opened (truncated).
  std::uint8_t head[4];
  if (std::fread(head, 1, 4, in) != 4 || std::memcmp(head, "EBCS", 4) != 0) {
    std::fprintf(stderr, "%s is not an EBCS stream\n", args[1]);
    return 1;
  }
  std::FILE* out = open_output(args[2]);
  nn::StreamingDecoder dec(
      [&fw](const std::string& spec) { return core::CodecRegistry::instance().create(spec, fw); },
      [out](const float* data, std::size_t n) { write_out(out, data, n * sizeof(float)); });
  dec.feed(head, 4);
  std::vector<std::uint8_t> buf(kIoChunk);
  std::size_t n;
  while ((n = std::fread(buf.data(), 1, buf.size(), in)) > 0) dec.feed(buf.data(), n);
  dec.finish();
  close_file(out);
  close_file(in);
  std::fprintf(stderr, "restored %llu floats via %s\n",
               static_cast<unsigned long long>(dec.floats_out()), dec.spec().c_str());
  return 0;
}

}  // namespace
