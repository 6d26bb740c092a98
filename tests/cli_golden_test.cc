// CLI golden corpus: every histk_cli subcommand and the histkd start-up and
// stdio paths, run as real processes and compared byte for byte — exit
// code, full stderr, and full stdout (or, above 4 KB, its size and FNV-1a
// hash) — against tests/data/cli/<case>.golden.
//
// The inputs are seeded `gen` runs made by the binary under test in a
// fresh temp directory, and every case runs there with relative paths, so
// no golden names a machine path. "wall_ms"/"serve_ms" values are zeroed
// before comparison; nothing else in these outputs depends on timing.
//
// A missing golden is written from the current binaries and the case
// fails, so a new case can never pass silently. Goldens are meant to be
// captured from a build of the parent commit (with this file added) and
// copied over; a refactor of the tools must then pass them unedited.
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace {

struct Case {
  const char* name;
  const char* cmd;  ///< shell command; {cli} / {histkd} name the binaries
  const char* file = nullptr;  ///< a file the command writes, also pinned
};

// clang-format off
const Case kCases[] = {
    // gen: every family under both kernels (stdout is the same under both).
    {"gen_khist_counts", "{cli} gen --family khist --n 256 --k 4 --samples 2000 --seed 11 --contrast 5 --kernel counts"},
    {"gen_khist_replay", "{cli} gen --family khist --n 256 --k 4 --samples 2000 --seed 11 --contrast 5 --kernel replay"},
    {"gen_staircase_counts", "{cli} gen --family staircase --n 200 --k 5 --samples 2000 --seed 11"},
    {"gen_staircase_replay", "{cli} gen --family staircase --n 200 --k 5 --samples 2000 --seed 11 --kernel replay"},
    {"gen_zipf_counts", "{cli} gen --family zipf --n 256 --skew 1.5 --samples 2000 --seed 11"},
    {"gen_zipf_replay", "{cli} gen --family zipf --n 256 --skew 1.5 --samples 2000 --seed 11 --kernel replay"},
    {"gen_gauss_counts", "{cli} gen --family gauss --n 256 --samples 2000 --seed 11 --threads 3"},
    {"gen_gauss_replay", "{cli} gen --family gauss --n 256 --samples 2000 --seed 11 --kernel replay"},
    {"gen_spikes_counts", "{cli} gen --family spikes --n 256 --k 6 --samples 2000 --seed 11"},
    {"gen_spikes_replay", "{cli} gen --family spikes --n 256 --k 6 --samples 2000 --seed 11 --kernel replay"},
    {"gen_zigzag_counts", "{cli} gen --family zigzag --n 256 --k 4 --eps 0.4 --samples 2000 --seed 11"},
    {"gen_zigzag_replay", "{cli} gen --family zigzag --n 256 --k 4 --eps 0.4 --samples 2000 --seed 11 --kernel replay"},
    {"gen_uniform_counts", "{cli} gen --family uniform --n 256 --samples 2000 --seed 11"},
    {"gen_uniform_replay", "{cli} gen --family uniform --n 256 --samples 2000 --seed 11 --kernel replay"},
    {"gen_pmf_out", "{cli} gen --family khist --n 64 --k 4 --samples 100 --seed 3 --pmf-out pmf.txt", "pmf.txt"},
    {"gen_bucket_backend", "{cli} gen --family khist --n 134217728 --k 64 --samples 20000 --seed 5 --pmf-out bucket_pmf.txt", "bucket_pmf.txt"},
    {"gen_unknown_family", "{cli} gen --family nope"},
    {"gen_zigzag_odd_n", "{cli} gen --family zigzag --n 255"},
    {"gen_no_samples", "{cli} gen --samples 0"},
    {"gen_k_above_n", "{cli} gen --n 4 --k 5"},

    // learn (Algorithm 1).
    {"learn_text", "{cli} learn --k 6 --eps 0.15 < items.txt"},
    {"learn_json", "{cli} learn --k 6 --eps 0.15 --json < items.txt"},
    {"learn_reduce_text", "{cli} learn --k 6 --eps 0.15 --reduce < items.txt"},
    {"learn_reduce_json", "{cli} learn --k 6 --eps 0.15 --reduce --json < items.txt"},
    {"learn_full_enum", "{cli} learn --k 4 --eps 0.3 --scale 0.25 --full-enum --seed 3 < items.txt"},
    {"learn_replay", "{cli} learn --k 6 --eps 0.15 --kernel replay --seed 5 < items.txt"},
    {"learn_domain_reservoir", "{cli} learn --k 6 --eps 0.2 --n 300 --reservoir 5000 --draw-threads 2 < items.txt"},
    {"learn_negative_items", "printf '3\\n-1\\n5\\n' | {cli} learn --k 2 --eps 0.3 --scale 0.1"},
    {"learn_int64_max_item",
     "printf '1\\n9223372036854775807\\n' | {cli} learn --k 2 --eps 0.3"},

    // test (Algorithm 2).
    {"test_l2_accept_text", "{cli} test --k 6 --eps 0.3 --norm l2 < items.txt"},
    {"test_l2_accept_json", "{cli} test --k 6 --eps 0.3 --norm l2 --json < items.txt"},
    {"test_l1_reject_text", "{cli} test --k 4 --eps 0.4 --norm l1 --scale 0.02 < zigzag.txt"},
    {"test_l1_reject_json", "{cli} test --k 4 --eps 0.4 --norm l1 --scale 0.02 --json < zigzag.txt"},

    // estimate.
    {"estimate_text", "{cli} estimate --k 6 --eps 0.2 --quantile 0.5 --quantile 0.9 --range 0:63 --range 64:255 < items.txt"},
    {"estimate_json", "{cli} estimate --k 6 --eps 0.2 --quantile 0.5 --quantile 0.9 --range 0:63 --range 64:255 --json < items.txt"},

    // property-test (CDKL22) and closeness (DKN17).
    {"property_accept_text", "{cli} property-test --k 6 --eps 0.3 --scale 0.5 < items.txt"},
    {"property_accept_json", "{cli} property-test --k 6 --eps 0.3 --scale 0.5 --json < items.txt"},
    {"property_reject_text", "{cli} property-test --k 2 --eps 0.3 --scale 0.5 < zipf.txt"},
    {"property_reject_json", "{cli} property-test --k 2 --eps 0.3 --scale 0.5 --json < zipf.txt"},
    {"property_l2_text", "{cli} property-test --k 6 --eps 0.3 --scale 0.5 --norm l2 < items.txt"},
    {"closeness_close_text", "{cli} closeness --k 5 --eps 0.3 --scale 0.5 --other stair_b.txt < stair_a.txt"},
    {"closeness_close_json", "{cli} closeness --k 5 --eps 0.3 --scale 0.5 --other stair_b.txt --json < stair_a.txt"},
    {"closeness_far_text", "{cli} closeness --k 6 --k2 5 --eps 0.3 --scale 0.5 --other other.txt < items.txt"},
    {"closeness_far_json", "{cli} closeness --k 6 --k2 5 --eps 0.3 --scale 0.5 --other other.txt --json < items.txt"},

    // compare and voptimal (dense counts ingestion).
    {"compare_text", "{cli} compare --k 6 --eps 0.2 --scale 0.5 < items.txt"},
    {"compare_json", "{cli} compare --k 6 --eps 0.2 --scale 0.5 --json < items.txt"},
    {"voptimal_text", "{cli} voptimal --k 6 < items.txt"},
    {"voptimal_json", "{cli} voptimal --k 6 --json < items.txt"},

    // ingest and the --from-sketch bridge.
    {"ingest_text", "{cli} ingest --cdf-at 100 --cdf-at 200 < items.txt"},
    {"ingest_json", "{cli} ingest --mantissa-bits 5 --json < items.txt"},
    {"ingest_sketch_out", "{cli} ingest --threads 3 --sketch-out sketch_out.txt < items.txt", "sketch_out.txt"},
    {"ingest_bad_mantissa", "{cli} ingest --mantissa-bits 99 < items.txt"},
    {"ingest_empty", "{cli} ingest < /dev/null"},
    {"learn_from_sketch_text", "{cli} learn --k 4 --eps 0.3 --from-sketch sketch.txt"},
    {"learn_from_sketch_json", "{cli} learn --k 4 --eps 0.3 --from-sketch sketch.txt --json"},
    {"test_from_sketch_text", "{cli} test --k 4 --eps 0.3 --norm l2 --from-sketch sketch.txt"},
    {"test_from_sketch_json", "{cli} test --k 4 --eps 0.3 --norm l2 --from-sketch sketch.txt --json"},
    {"from_sketch_missing", "{cli} learn --k 4 --from-sketch missing.txt"},

    // Resilient sessions: seeded faults with retries, and the budget cap.
    {"faults_learn_text", "{cli} learn --k 6 --eps 0.15 --inject-faults 42 --max-retries 16 < items.txt"},
    {"faults_learn_json", "{cli} learn --k 6 --eps 0.15 --inject-faults 42 --max-retries 16 --json < items.txt"},
    {"faults_closeness_json", "{cli} closeness --k 6 --eps 0.3 --scale 0.5 --other other.txt --inject-faults 42 --max-retries 16 --json < items.txt"},
    {"budget_text", "{cli} learn --k 6 --eps 0.15 --budget 1000 < items.txt"},
    {"budget_json", "{cli} learn --k 6 --eps 0.15 --budget 1000 --json < items.txt"},

    // Usage and input errors.
    {"no_args", "{cli}"},
    {"unknown_command", "{cli} frobnicate"},
    {"control_kind_command", "{cli} stats < items.txt"},
    {"unknown_flag", "{cli} learn --bogus"},
    {"bad_k", "{cli} learn --k x"},
    {"missing_value", "{cli} learn --k"},
    {"bad_norm", "{cli} test --norm l3"},
    {"bad_kernel", "{cli} learn --kernel simd"},
    {"bad_range", "{cli} estimate --range 5"},
    {"bad_deadline", "{cli} learn --deadline-ms 0"},
    {"bad_max_retries", "{cli} learn --max-retries -1"},
    {"bad_draw_threads", "{cli} learn --draw-threads -1"},
    {"bad_threads", "{cli} gen --threads 4294967296"},
    {"seed_negative", "{cli} learn --seed -5 < items.txt"},
    {"seed_padded_negative", "{cli} learn --seed ' -5' < items.txt"},
    {"seed_plus_sign", "{cli} learn --seed +5 < items.txt"},
    {"k_padded", "{cli} learn --k ' 6' --eps 0.15 < items.txt"},
    {"k_plus_sign", "{cli} learn --k +6 --eps 0.15 < items.txt"},
    {"eps_padded", "{cli} learn --k 6 --eps ' 0.15' < items.txt"},
    {"test_reduce", "{cli} test --k 6 --eps 0.3 --reduce < items.txt"},
    {"estimate_no_queries", "{cli} estimate --k 6 --eps 0.2 < items.txt"},
    {"parse_error_line3", "printf '1\\n2\\nbogus\\n' | {cli} learn --k 2 --eps 0.3"},
    {"no_items", "{cli} learn --k 2 < /dev/null"},
    {"closeness_no_other", "{cli} closeness --k 6 < items.txt"},
    {"closeness_missing_other", "{cli} closeness --k 6 --other missing.txt < items.txt"},
    {"estimate_from_sketch", "{cli} estimate --k 4 --quantile 0.5 --from-sketch sketch.txt"},
    {"compare_n_too_big", "{cli} compare --k 6 --n 16777217 < items.txt"},

    // histkd: start-up flag handling and one stdio session.
    {"histkd_workers_0", "{histkd} --workers 0 < /dev/null"},
    {"histkd_workers_257", "{histkd} --workers 257 < /dev/null"},
    {"histkd_unknown_flag", "{histkd} --bogus < /dev/null"},
    {"histkd_kernel_simd", "{histkd} --kernel simd < /dev/null"},
    {"histkd_queue_limit_0", "{histkd} --queue-limit 0 < /dev/null"},
    {"histkd_empty_data_root", "{histkd} --data-root '' < /dev/null"},
    {"histkd_help", "{histkd} --help"},
    {"histkd_stdio_session",
     "printf '%s\\n'"
     " '{\"id\": \"l\", \"kind\": \"learn\", \"k\": 4, \"eps\": 0.3, \"dataset\": {\"path\": \"items.txt\"}}'"
     " '{\"id\": \"e\", \"kind\": \"estimate\", \"k\": 4, \"eps\": 0.3, \"quantiles\": [0.5], \"dataset\": {\"path\": \"items.txt\"}}'"
     " '{\"id\": \"q\", \"kind\": \"shutdown\"}'"
     " | {histkd} --workers 2 --kernel counts"},
};
// clang-format on

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

// Seeded inputs, made by the binary under test before any case runs.
const char* const kSetup[] = {
    "{cli} gen --family khist --n 256 --k 6 --samples 20000 --seed 7 > items.txt",
    "{cli} gen --family khist --n 256 --k 6 --samples 20000 --seed 8 > other.txt",
    "{cli} gen --family staircase --n 256 --k 5 --samples 20000 --seed 3 > stair_a.txt",
    "{cli} gen --family staircase --n 256 --k 5 --samples 20000 --seed 4 > stair_b.txt",
    "{cli} gen --family zigzag --n 256 --k 4 --eps 0.4 --samples 20000 --seed 9 > zigzag.txt",
    "{cli} gen --family zipf --n 256 --skew 2.0 --samples 20000 --seed 10 > zipf.txt",
    "{cli} ingest --sketch-out sketch.txt < items.txt > /dev/null",
};

constexpr size_t kInlineLimit = 4096;  // larger outputs are pinned by hash

std::string Expand(std::string cmd) {
  const std::pair<const char*, const char*> subs[] = {{"{cli}", HISTK_CLI_PATH},
                                                      {"{histkd}", HISTKD_PATH}};
  for (const auto& [key, path] : subs) {
    const std::string quoted = std::string("'") + path + "'";
    for (size_t at = cmd.find(key); at != std::string::npos; at = cmd.find(key, at)) {
      cmd.replace(at, std::string(key).size(), quoted);
      at += quoted.size();
    }
  }
  return cmd;
}

std::string Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// Timing is the one run-dependent value in these outputs.
std::string ZeroTimings(std::string s) {
  for (const std::string key : {"\"wall_ms\": ", "\"serve_ms\": "}) {
    for (size_t at = s.find(key); at != std::string::npos; at = s.find(key, at)) {
      at += key.size();
      s.replace(at, s.find_first_not_of("-+.0123456789eE", at) - at, "0");
    }
  }
  return s;
}

std::string Section(const std::string& label, const std::string& raw) {
  const std::string bytes = ZeroTimings(raw);
  std::string out = "--- " + label + ": " + std::to_string(bytes.size()) + " bytes";
  if (bytes.size() > kInlineLimit) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(Fnv1a64(bytes)));
    return out + ", fnv1a64 " + hex + "\n";
  }
  out += "\n" + bytes;
  if (!bytes.empty() && bytes.back() != '\n') out += '\n';
  return out;
}

class CliGoldenTest : public testing::TestWithParam<Case> {
 protected:
  static void SetUpTestSuite() {
    std::string tmpl = testing::TempDir() + "/histk_cli_golden_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
    dir_ = new std::string(tmpl);
    for (const char* cmd : kSetup) {
      ASSERT_EQ(std::system(("cd '" + *dir_ + "' && " + Expand(cmd)).c_str()), 0) << cmd;
    }
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  // Runs `c` in the temp dir and renders everything it left behind.
  static std::string Run(const Case& c) {
    const std::string out = *dir_ + "/" + c.name + ".stdout";
    const std::string err = *dir_ + "/" + c.name + ".stderr";
    const std::string shell = "cd '" + *dir_ + "' && ( " + Expand(c.cmd) + " ) > '" + out +
                              "' 2> '" + err + "'";
    const int status = std::system(shell.c_str());
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::string rendered = std::string("$ ") + c.cmd + "\nexit " + std::to_string(code) +
                           "\n" + Section("stdout", Slurp(out)) +
                           Section("stderr", Slurp(err));
    if (c.file != nullptr) {
      rendered += Section(std::string("file ") + c.file, Slurp(*dir_ + "/" + c.file));
    }
    return rendered;
  }

  static std::string* dir_;
};

std::string* CliGoldenTest::dir_ = nullptr;

TEST_P(CliGoldenTest, MatchesGolden) {
  const Case& c = GetParam();
  const std::string actual = Run(c);
  const std::string path = std::string(HISTK_TEST_DATA_DIR) + "/cli/" + c.name + ".golden";
  if (!std::filesystem::exists(path)) {
    std::filesystem::create_directories(std::string(HISTK_TEST_DATA_DIR) + "/cli");
    std::ofstream(path, std::ios::binary) << actual;
    ADD_FAILURE() << "no golden for " << c.name << "; wrote " << path;
    return;
  }
  EXPECT_EQ(Slurp(path), actual);
}

INSTANTIATE_TEST_SUITE_P(Corpus, CliGoldenTest, testing::ValuesIn(kCases),
                         [](const testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
