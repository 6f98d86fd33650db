// Tests for parameter serialization and model save/load round trips.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/contracts.hpp"
#include "core/prism5g.hpp"
#include "nn/serialize.hpp"
#include "predictors/deep.hpp"
#include "test_helpers.hpp"

namespace {

using namespace ca5g;
using nn::Tensor;

TEST(Serialize, BlobRoundTrip) {
  common::Rng rng(1);
  std::vector<Tensor> params{Tensor::randn(rng, 3, 4, 1.0f),
                             Tensor::randn(rng, 1, 7, 1.0f)};
  const auto blob = nn::serialize_parameters(params);

  std::vector<Tensor> fresh{Tensor(3, 4, true), Tensor(1, 7, true)};
  nn::deserialize_parameters(blob, fresh);
  for (std::size_t i = 0; i < params.size(); ++i)
    EXPECT_EQ(fresh[i].values(), params[i].values());
}

TEST(Serialize, DetectsCorruption) {
  common::Rng rng(2);
  std::vector<Tensor> params{Tensor::randn(rng, 2, 2, 1.0f)};
  auto blob = nn::serialize_parameters(params);

  // Wrong magic.
  auto bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  std::vector<Tensor> target{Tensor(2, 2, true)};
  EXPECT_THROW(nn::deserialize_parameters(bad_magic, target), common::CheckError);

  // Truncated payload.
  auto truncated = blob;
  truncated.resize(truncated.size() - 4);
  EXPECT_THROW(nn::deserialize_parameters(truncated, target), common::CheckError);

  // Shape mismatch.
  std::vector<Tensor> wrong_shape{Tensor(4, 1, true)};
  EXPECT_THROW(nn::deserialize_parameters(blob, wrong_shape), common::CheckError);

  // Count mismatch.
  std::vector<Tensor> wrong_count{Tensor(2, 2, true), Tensor(2, 2, true)};
  EXPECT_THROW(nn::deserialize_parameters(blob, wrong_count), common::CheckError);
}

TEST(Serialize, RejectsFormatVersionMismatchWithExpectedAndFound) {
  common::Rng rng(5);
  std::vector<Tensor> params{Tensor::randn(rng, 2, 3, 1.0f)};
  auto blob = nn::serialize_parameters(params);

  // The version word sits right after the 4-byte magic; forge a future one.
  const std::uint32_t future = nn::kSerializeFormatVersion + 7;
  std::memcpy(blob.data() + 4, &future, sizeof(future));

  std::vector<Tensor> target{Tensor(2, 3, true)};
  try {
    nn::deserialize_parameters(blob, target);
    FAIL() << "version mismatch must throw";
  } catch (const common::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("version mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected v" + std::to_string(nn::kSerializeFormatVersion)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("found v" + std::to_string(future)), std::string::npos) << msg;
  }
}

TEST(Serialize, DiagnosesLegacyV1Blob) {
  // A v1 blob started with the old magic and went straight to the tensor
  // count — no version word. The loader must name it legacy, not report
  // a garbage version.
  std::vector<std::uint8_t> legacy;
  const std::uint32_t old_magic = 0xCA5610A0;
  legacy.resize(sizeof(old_magic));
  std::memcpy(legacy.data(), &old_magic, sizeof(old_magic));

  std::vector<Tensor> target{Tensor(1, 1, true)};
  try {
    nn::deserialize_parameters(legacy, target);
    FAIL() << "legacy v1 blob must throw";
  } catch (const common::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("legacy parameter blob (format v1)"),
              std::string::npos)
        << e.what();
  }
}

TEST(Serialize, LoadErrorNamesTheFile) {
  common::Rng rng(6);
  std::vector<Tensor> params{Tensor::randn(rng, 2, 2, 1.0f)};
  auto blob = nn::serialize_parameters(params);
  const std::uint32_t future = nn::kSerializeFormatVersion + 1;
  std::memcpy(blob.data() + 4, &future, sizeof(future));

  const auto path =
      (std::filesystem::temp_directory_path() / "ca5g_stale_version.bin").string();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
  }

  std::vector<Tensor> target{Tensor(2, 2, true)};
  try {
    nn::load_parameters(target, path);
    FAIL() << "loading a future-version file must throw";
  } catch (const common::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("version mismatch"), std::string::npos) << msg;
  }
  std::filesystem::remove(path);
}

TEST(Serialize, FileRoundTripPreservesPredictions) {
  const auto ds = ca5g::test::synthetic_dataset(1, 200);
  common::Rng rng(3);
  const auto split = ds.random_split(0.6, 0.15, rng);

  predictors::TrainConfig config;
  config.epochs = 6;
  config.hidden = 12;
  config.layers = 1;

  predictors::LstmPredictor trained(config);
  trained.fit(ds, split.train, split.val);
  const auto path =
      (std::filesystem::temp_directory_path() / "ca5g_model_test.bin").string();
  trained.save(path);

  predictors::LstmPredictor restored(config);
  restored.load(ds, path);
  for (std::size_t i = 0; i < std::min<std::size_t>(split.test.size(), 10); ++i) {
    const auto a = trained.predict(*split.test[i]);
    const auto b = restored.predict(*split.test[i]);
    for (std::size_t h = 0; h < a.size(); ++h) EXPECT_FLOAT_EQ(a[h], b[h]);
  }
  std::filesystem::remove(path);
}

TEST(Serialize, PrismSaveLoad) {
  const auto ds = ca5g::test::synthetic_dataset(1, 200);
  common::Rng rng(4);
  const auto split = ds.random_split(0.6, 0.15, rng);
  predictors::TrainConfig config;
  config.epochs = 4;
  config.hidden = 12;
  config.layers = 1;

  core::Prism5G trained(config);
  trained.fit(ds, split.train, split.val);
  const auto path =
      (std::filesystem::temp_directory_path() / "ca5g_prism_test.bin").string();
  trained.save(path);

  core::Prism5G restored(config);
  restored.load(ds, path);
  const auto a = trained.predict(*split.test.front());
  const auto b = restored.predict(*split.test.front());
  for (std::size_t h = 0; h < a.size(); ++h) EXPECT_FLOAT_EQ(a[h], b[h]);
  std::filesystem::remove(path);
}

TEST(Serialize, LoadMissingFileThrows) {
  std::vector<Tensor> params{Tensor(1, 1, true)};
  EXPECT_THROW(nn::load_parameters(params, "/nonexistent/model.bin"),
               common::CheckError);
}

}  // namespace
