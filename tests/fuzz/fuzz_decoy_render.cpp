// libFuzzer harness over the decoy renderer (src/defense/decoy_render).
//
// Bytes in, three properties out:
//
//  1. Rendering never crashes: arbitrary styles, names, subnets, ASNs,
//     and nesting depths decoded from the fuzz input must render without
//     UB or thrown-through exceptions.
//  2. Tokenize/Render round-trip: every rendered line must survive the
//     zero-copy IOS and JunOS tokenizers byte-for-byte, like any other
//     config line — a decoy that the parsers mangle would diverge from
//     real output on the next pipeline pass.
//  3. Decoy lines anonymize cleanly: a synthetic file assembled from the
//     rendered fragments runs through both anonymization engines without
//     crashing (decoys are inserted into files that later consumers may
//     re-anonymize; the engines must treat them like any config text).
//
// Built only under -DCONFANON_FUZZ=ON; see fuzz_anonymize_line.cpp for
// the Clang-libFuzzer vs standalone-replay split.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "config/document.h"
#include "config/tokenizer.h"
#include "core/anonymizer.h"
#include "defense/decoy_render.h"
#include "junos/anonymizer.h"
#include "junos/tokenizer.h"
#include "net/prefix.h"

namespace {

using confanon::defense::IosStyle;

/// Deterministic byte-stream reader: the fuzz input IS the parameter
/// tape. Runs dry to zeros, so short inputs still exercise everything.
class Tape {
 public:
  Tape(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t Byte() { return pos_ < size_ ? data_[pos_++] : 0; }

  std::uint32_t U32() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) value = value << 8 | Byte();
    return value;
  }

  std::uint64_t U64() {
    return static_cast<std::uint64_t>(U32()) << 32 | U32();
  }

  /// A short identifier-ish string: length and bytes off the tape, with
  /// newlines stripped so the "one fragment line = one config line"
  /// accounting below stays valid.
  std::string Name() {
    const std::size_t length = Byte() % 24;
    std::string name;
    name.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      char c = static_cast<char>(Byte());
      if (c == '\n' || c == '\r' || c == '\0') c = '_';
      name.push_back(c);
    }
    return name;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void CheckRoundTrip(std::string_view line) {
  const confanon::config::LineTokens tokens =
      confanon::config::TokenizeLine(line);
  if (tokens.Render() != line) __builtin_trap();

  confanon::junos::JunosLine junos_line;
  confanon::junos::TokenizeJunosLineInto(line, junos_line);
  if (junos_line.Render() != line) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  Tape tape(data, size);

  // Style bytes: arbitrary indent/gap widths, not just the 1/2 the prober
  // emits — the renderers must not depend on the prober's range.
  IosStyle style;
  style.indent = std::string(tape.Byte() % 5, ' ');
  style.gap = std::string(1 + tape.Byte() % 4, ' ');

  const int length = tape.Byte() % 33;  // 0..32
  const confanon::net::Prefix subnet(
      confanon::net::Ipv4Address(tape.U32()), length);
  const std::uint32_t asn = tape.U32();
  const confanon::net::Ipv4Address peer(tape.U32());
  const int depth = tape.Byte() % 6;
  const int unit = tape.Byte() % 1000;

  std::vector<std::string> lines;
  const auto collect = [&lines](const std::vector<std::string>& block) {
    lines.insert(lines.end(), block.begin(), block.end());
  };

  collect(confanon::defense::RenderIosDecoyInterface(style, tape.Name(),
                                                     subnet));
  lines.push_back(confanon::defense::RenderIosDecoyNeighbor(style, peer, asn));
  collect(confanon::defense::RenderIosDecoyBgpBlock(
      style, tape.U32(), {{peer, asn}, {confanon::net::Ipv4Address(tape.U32()),
                                        tape.U32()}}));
  collect(confanon::defense::RenderJunosDecoyInterface(tape.Name(), unit,
                                                       subnet, depth));
  collect(confanon::defense::RenderJunosDecoyGroup(
      confanon::defense::HashLikeToken(tape.U64()), asn, peer, depth));

  std::string text;
  for (const std::string& line : lines) {
    CheckRoundTrip(line);
    text += line;
    text += '\n';
  }

  const auto file = confanon::config::ConfigFile::FromText("decoys.cfg", text);
  {
    confanon::core::AnonymizerOptions options;
    options.salt = "fuzz-salt";
    confanon::core::Anonymizer engine(options);
    (void)engine.AnonymizeNetwork({file});
  }
  {
    confanon::core::AnonymizerOptions options;
    options.salt = "fuzz-salt";
    confanon::junos::JunosAnonymizer engine(options);
    (void)engine.AnonymizeNetwork({file});
  }
  return 0;
}

#if !defined(CONFANON_FUZZ_LIBFUZZER)
// Standalone replay driver (same shape as fuzz_anonymize_line.cpp).
#include <iostream>

#include "util/io.h"

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string error;
    const auto bytes = confanon::util::ReadFileFully(argv[i], &error);
    if (!bytes) {
      std::cerr << error << "\n";
      return 1;
    }
    LLVMFuzzerTestOneInput(
        reinterpret_cast<const std::uint8_t*>(bytes->data()), bytes->size());
    std::cout << "replayed " << argv[i] << " (" << bytes->size()
              << " bytes)\n";
  }
  return 0;
}
#endif
