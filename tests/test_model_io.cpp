#include "hdc/model_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>

#include "util/fileio.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace lehdc::hdc {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

BinaryClassifier make_classifier(std::size_t classes, std::size_t dim,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<hv::BitVector> hvs;
  for (std::size_t k = 0; k < classes; ++k) {
    hvs.push_back(hv::BitVector::random(dim, rng));
  }
  return BinaryClassifier(std::move(hvs));
}

TEST(ModelIo, RoundTripPreservesModel) {
  const auto path = temp_path("roundtrip.lhdc");
  const BinaryClassifier original = make_classifier(5, 1000, 1);
  save_classifier(original, path);
  const BinaryClassifier loaded = load_classifier(path);
  ASSERT_EQ(loaded.class_count(), 5u);
  ASSERT_EQ(loaded.dim(), 1000u);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(loaded.class_hypervector(k), original.class_hypervector(k));
  }
  std::remove(path.c_str());
}

TEST(ModelIo, RoundTripAtWordBoundary) {
  const auto path = temp_path("boundary.lhdc");
  const BinaryClassifier original = make_classifier(2, 64, 2);
  save_classifier(original, path);
  const BinaryClassifier loaded = load_classifier(path);
  EXPECT_EQ(loaded.class_hypervector(1), original.class_hypervector(1));
  std::remove(path.c_str());
}

TEST(ModelIo, LoadedModelPredictsIdentically) {
  const auto path = temp_path("predict.lhdc");
  const BinaryClassifier original = make_classifier(4, 777, 3);
  save_classifier(original, path);
  const BinaryClassifier loaded = load_classifier(path);
  util::Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    const auto query = hv::BitVector::random(777, rng);
    ASSERT_EQ(loaded.predict(query), original.predict(query));
  }
  std::remove(path.c_str());
}

TEST(ModelIo, MissingFileThrows) {
  EXPECT_THROW((void)load_classifier(temp_path("does_not_exist.lhdc")),
               std::runtime_error);
}

TEST(ModelIo, BadMagicThrows) {
  const auto path = temp_path("bad_magic.lhdc");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPExxxxxxxxxxxxxxxxxxxxxxxxxxxx";
  }
  EXPECT_THROW((void)load_classifier(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelIo, TruncatedPayloadThrows) {
  const auto path = temp_path("truncated.lhdc");
  save_classifier(make_classifier(3, 512, 5), path);
  // Chop the file in half.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_THROW((void)load_classifier(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelIo, UnwritableDirectoryThrows) {
  EXPECT_THROW(
      save_classifier(make_classifier(1, 64, 6), "/nonexistent/m.lhdc"),
      std::runtime_error);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

TEST(ModelIo, UnsupportedVersionThrows) {
  const auto path = temp_path("future_version.lhdc");
  save_classifier(make_classifier(2, 128, 7), path);
  std::string contents = slurp(path);
  const std::uint32_t future = 99;
  std::memcpy(contents.data() + 4, &future, sizeof(future));
  spit(path, contents);
  try {
    (void)load_classifier(path);
    FAIL() << "version 99 file loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ModelIo, SingleFlippedPayloadBitThrowsChecksumError) {
  const auto path = temp_path("bitflip.lhdc");
  const BinaryClassifier original = make_classifier(3, 500, 8);
  save_classifier(original, path);
  const std::string pristine = slurp(path);
  // Flip one bit at several positions inside the framed payload (past
  // magic + version + size field) and in the trailing CRC itself.
  const std::size_t payload_start = 4 + 4 + 8;
  for (const std::size_t byte :
       {payload_start, payload_start + 17, pristine.size() / 2,
        pristine.size() - 1}) {
    std::string corrupted = pristine;
    corrupted[byte] = static_cast<char>(corrupted[byte] ^ 0x04);
    spit(path, corrupted);
    EXPECT_THROW((void)load_classifier(path), std::runtime_error)
        << "bit flip at byte " << byte << " went undetected";
  }
  // The pristine bytes still load, so the corruption (not the harness)
  // caused the failures above.
  spit(path, pristine);
  const BinaryClassifier loaded = load_classifier(path);
  EXPECT_EQ(loaded.class_hypervector(0), original.class_hypervector(0));
  std::remove(path.c_str());
}

TEST(ModelIo, CrcValidButInconsistentHeaderThrows) {
  // A v2 file whose checksum is valid but whose header declares an absurd
  // dimension must be rejected before any allocation is attempted.
  const auto path = temp_path("absurd_dim.lhdc");
  util::PayloadWriter payload;
  payload.pod<std::uint64_t>(std::uint64_t{1} << 62);  // dim
  payload.pod<std::uint64_t>(3);                       // class_count
  {
    std::ofstream out(path, std::ios::binary);
    out << "LHDC";
    const std::uint32_t version = 2;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    util::write_framed_payload(out, payload.str());
  }
  EXPECT_THROW((void)load_classifier(path), std::runtime_error);
  std::remove(path.c_str());
}

/// Writes `magic` | u32 1 | `header` — the unframed v1 layout, whose
/// header fields were trusted as-is — and expects the load to fail as an
/// unsupported version. The header declares 2^62-bit vectors, so any
/// attempt to allocate from it would escape as std::bad_alloc or
/// std::length_error, not std::runtime_error.
template <typename Load>
void expect_v1_rejected(const std::string& path, const char* magic,
                        std::initializer_list<std::uint64_t> header,
                        Load load) {
  {
    std::ofstream out(path, std::ios::binary);
    out << magic;
    const std::uint32_t version = 1;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    for (const std::uint64_t field : header) {
      out.write(reinterpret_cast<const char*>(&field), sizeof(field));
    }
  }
  try {
    (void)load(path);
    FAIL() << "version-1 " << magic << " file loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ModelIo, V1FileIsRejected) {
  // v1 classifier header: u64 dim | u64 class_count.
  expect_v1_rejected(temp_path("legacy.lhdc"), "LHDC",
                     {std::uint64_t{1} << 62, 3},
                     [](const std::string& p) { return load_classifier(p); });
}

TEST(ModelIo, SaveLeavesNoTemporaryFile) {
  const auto path = temp_path("no_temp.lhdc");
  save_classifier(make_classifier(2, 256, 10), path);
  std::ifstream temp(path + ".tmp.lehdc", std::ios::binary);
  EXPECT_FALSE(temp.good());
  std::remove(path.c_str());
}

EnsembleClassifier make_ensemble(std::size_t classes, std::size_t per_class,
                                 std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<hv::BitVector>> models(classes);
  for (auto& class_models : models) {
    for (std::size_t m = 0; m < per_class; ++m) {
      class_models.push_back(hv::BitVector::random(dim, rng));
    }
  }
  return EnsembleClassifier(std::move(models));
}

TEST(EnsembleIo, RoundTripPreservesModels) {
  const auto path = temp_path("roundtrip.lhde");
  const EnsembleClassifier original = make_ensemble(3, 4, 300, 11);
  save_ensemble(original, path);
  const EnsembleClassifier loaded = load_ensemble(path);
  ASSERT_EQ(loaded.class_count(), 3u);
  ASSERT_EQ(loaded.models_per_class(), 4u);
  EXPECT_EQ(loaded.models(), original.models());
  std::remove(path.c_str());
}

TEST(EnsembleIo, SingleFlippedPayloadBitThrows) {
  const auto path = temp_path("bitflip.lhde");
  save_ensemble(make_ensemble(2, 2, 256, 12), path);
  std::string contents = slurp(path);
  contents[contents.size() / 2] =
      static_cast<char>(contents[contents.size() / 2] ^ 0x01);
  spit(path, contents);
  EXPECT_THROW((void)load_ensemble(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(EnsembleIo, V1FileIsRejected) {
  // v1 ensemble header: u64 dim | u64 classes | u64 models_per_class.
  expect_v1_rejected(temp_path("legacy.lhde"), "LHDE",
                     {std::uint64_t{1} << 62, 2, 3},
                     [](const std::string& p) { return load_ensemble(p); });
}

}  // namespace
}  // namespace lehdc::hdc
