// Corpus-driven robustness harness for the RTL parser.
//
// tests/corpus/rtl holds two file families: ok_*.rtl must parse into a
// valid netlist, bad_*.rtl must be rejected with a structured
// OpisoError diagnostic that names the offending input line — never a
// crash, an abort, or a raw std:: exception. On top of the fixed
// corpus, a deterministic byte-mutation fuzzer (fixed xorshift seed, so
// every run and every CI leg sees the same inputs) hammers the parser
// with corrupted variants of each corpus file; any outcome other than
// "parsed" or "threw OpisoError" fails the suite. The same corpus
// feeds the optional libFuzzer target (fuzz_rtl_parser) as its seed
// inputs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/rtl_parser.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"

namespace opiso {
namespace {

namespace fs = std::filesystem;

const fs::path kCorpusDir = fs::path(OPISO_CORPUS_DIR) / "rtl";

std::vector<fs::path> corpus_files(const std::string& prefix) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(kCorpusDir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && entry.path().extension() == ".rtl") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const fs::path& path) {
  std::ifstream is(path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

TEST(Corpus, DirectoriesArePopulated) {
  // Guards against a silently empty glob (e.g. a moved corpus dir)
  // turning the whole suite into a no-op.
  EXPECT_GE(corpus_files("ok_").size(), 3u);
  EXPECT_GE(corpus_files("bad_").size(), 15u);
}

TEST(Corpus, OkFilesParseAndValidate) {
  for (const fs::path& path : corpus_files("ok_")) {
    SCOPED_TRACE(path.filename().string());
    Netlist nl;
    ASSERT_NO_THROW(nl = parse_rtl_file(path.string()));
    EXPECT_NO_THROW(nl.validate());
    EXPECT_GE(nl.primary_outputs().size(), 1u);
  }
}

TEST(Corpus, BadFilesYieldStructuredLineDiagnostics) {
  for (const fs::path& path : corpus_files("bad_")) {
    SCOPED_TRACE(path.filename().string());
    try {
      (void)parse_rtl_file(path.string());
      ADD_FAILURE() << path << " parsed but must be rejected";
    } catch (const OpisoError& e) {
      // Structured: a stable code, a message, and the offending line.
      EXPECT_STRNE(e.code_name(), "");
      EXPECT_NE(e.code(), ErrCode::Internal)
          << "malformed input must not surface as an internal error";
      EXPECT_FALSE(std::string(e.what()).empty());
      EXPECT_GT(e.input_line(), 0) << "diagnostic lost the input line";
      EXPECT_NE(std::string(e.what()).find("rtl line"), std::string::npos);
      // The JSON rendering must itself be valid JSON carrying the code.
      const obs::JsonValue j = obs::JsonValue::parse(e.json());
      EXPECT_EQ(j.at("error").at("code").as_string(), e.code_name());
      EXPECT_EQ(j.at("error").at("input_line").as_number(),
                static_cast<double>(e.input_line()));
    }
    // Anything else (std::bad_alloc, std::out_of_range, a signal)
    // escapes and fails the test — exactly the point.
  }
}

TEST(Corpus, ExpectedCodesForKnownFamilies) {
  const struct {
    const char* file;
    ErrCode code;
  } kCases[] = {
      {"bad_dup_wire.rtl", ErrCode::ParseDuplicate},
      {"bad_dup_reg.rtl", ErrCode::ParseDuplicate},
      {"bad_width_zero.rtl", ErrCode::ParseWidth},
      {"bad_width_oversized.rtl", ErrCode::ParseWidth},
      {"bad_width_overflow.rtl", ErrCode::ParseWidth},
      {"bad_dangling_ref.rtl", ErrCode::ParseUnknownRef},
      {"bad_number_literal.rtl", ErrCode::ParseNumber},
      {"bad_number_overflow.rtl", ErrCode::ParseNumber},
      {"bad_shift_overflow.rtl", ErrCode::ParseNumber},
      {"bad_deep_nesting.rtl", ErrCode::ParseDepth},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.file);
    try {
      (void)parse_rtl_file((kCorpusDir / c.file).string());
      ADD_FAILURE() << c.file << " parsed but must be rejected";
    } catch (const OpisoError& e) {
      EXPECT_EQ(e.code(), c.code) << "got " << e.code_name() << ": " << e.what();
    }
  }
}

TEST(Corpus, MissingFileIsAnIoError) {
  EXPECT_THROW((void)parse_rtl_file((kCorpusDir / "does_not_exist.rtl").string()), IoError);
}

// ------------------------------------------------------------- fuzzing

struct XorShift64 {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

// Byte-level corruption: flips, ASCII splices, truncation, duplication.
// Deliberately text-shaped (printable splice bytes) so mutants stay in
// the lexer/elaborator's interesting region instead of dying uniformly
// in the first token.
std::string mutate(std::string text, XorShift64& rng) {
  if (text.empty()) text = ' ';
  const unsigned ops = 1 + static_cast<unsigned>(rng.next() % 4);
  for (unsigned op = 0; op < ops; ++op) {
    switch (rng.next() % 5) {
      case 0:  // flip a byte
        text[rng.next() % text.size()] ^= static_cast<char>(1u << (rng.next() % 8));
        break;
      case 1:  // overwrite with a printable byte
        text[rng.next() % text.size()] = static_cast<char>(' ' + rng.next() % 95);
        break;
      case 2:  // truncate
        text.resize(rng.next() % (text.size() + 1));
        if (text.empty()) text = '(';
        break;
      case 3: {  // duplicate a slice (breeds duplicate definitions)
        const std::size_t from = rng.next() % text.size();
        const std::size_t len = rng.next() % std::min<std::size_t>(text.size() - from, 64) ;
        text.insert(rng.next() % text.size(), text.substr(from, len));
        break;
      }
      case 4: {  // splice structural noise
        static const char* kNoise[] = {":", "?", "(", "))", "<<", "0x", ":0", ":99",
                                       "when", "reg", "wire q = q", "\n"};
        text.insert(rng.next() % text.size(), kNoise[rng.next() % 12]);
        break;
      }
    }
  }
  return text;
}

TEST(Corpus, DeterministicMutationFuzzNeverCrashes) {
  constexpr int kRoundsPerFile = 150;  // fixed workload: time-boxed in CI
  XorShift64 rng{0x0015CA1EDB00F5ull};  // fixed seed: identical on every run
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const std::string prefix : {"ok_", "bad_"}) {
    for (const fs::path& path : corpus_files(prefix)) {
      const std::string original = slurp(path);
      for (int round = 0; round < kRoundsPerFile; ++round) {
        const std::string mutant = mutate(original, rng);
        try {
          (void)parse_rtl(mutant);
          ++parsed;
        } catch (const OpisoError&) {
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << path.filename() << " round " << round
                        << ": leaked a non-OpisoError exception: " << e.what()
                        << "\n--- mutant ---\n"
                        << mutant;
        }
      }
    }
  }
  // The mutator must actually exercise both outcomes, otherwise it is
  // either too tame or reducing everything to the first-token error.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace opiso
