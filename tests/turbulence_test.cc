#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/coding.h"
#include "fileserver/file_server.h"
#include "turbulence/field.h"
#include "turbulence/tbf.h"

namespace easia::turb {
namespace {

TEST(ComponentTest, Names) {
  EXPECT_EQ(*ComponentFromName("u"), Component::kU);
  EXPECT_EQ(*ComponentFromName("p"), Component::kP);
  EXPECT_FALSE(ComponentFromName("q").ok());
  EXPECT_EQ(ComponentName(Component::kW), "w");
}

TEST(TaylorGreenTest, InitialConditionAtOrigin) {
  FieldPoint pt = TaylorGreen(M_PI / 2, 0, 0, 0, 0.01);
  EXPECT_NEAR(pt.u, 1.0, 1e-12);  // sin(pi/2)cos(0)cos(0)
  EXPECT_NEAR(pt.v, 0.0, 1e-12);
  EXPECT_NEAR(pt.w, 0.0, 1e-12);
}

TEST(TaylorGreenTest, DecaysInTime) {
  FieldPoint early = TaylorGreen(1.0, 0.5, 0.25, 0.0, 0.1);
  FieldPoint late = TaylorGreen(1.0, 0.5, 0.25, 10.0, 0.1);
  EXPECT_LT(std::fabs(late.u), std::fabs(early.u));
  EXPECT_NEAR(late.u / early.u, std::exp(-2.0 * 0.1 * 10.0), 1e-12);
}

TEST(FieldTest, GenerateAndSample) {
  Field field = Field::Generate(8, 0.0, 0.01);
  EXPECT_EQ(field.n(), 8u);
  // Spot-check a grid point against the analytic solution.
  double h = 2 * M_PI / 8;
  FieldPoint expected = TaylorGreen(2 * h, 3 * h, 5 * h, 0.0, 0.01);
  EXPECT_NEAR(field.At(Component::kU, 2, 3, 5), expected.u, 1e-12);
  EXPECT_NEAR(field.At(Component::kP, 2, 3, 5), expected.p, 1e-12);
}

TEST(FieldTest, WIsIdenticallyZero) {
  Field field = Field::Generate(8, 0.3, 0.01);
  FieldStats s = field.Stats(Component::kW);
  EXPECT_DOUBLE_EQ(s.min, 0);
  EXPECT_DOUBLE_EQ(s.max, 0);
}

TEST(FieldTest, VelocityBoundsAndSymmetry) {
  Field field = Field::Generate(16, 0.0, 0.01);
  FieldStats u = field.Stats(Component::kU);
  EXPECT_LE(u.max, 1.0 + 1e-12);
  EXPECT_GE(u.min, -1.0 - 1e-12);
  // The Taylor-Green u field is antisymmetric: mean ~ 0.
  EXPECT_NEAR(u.mean, 0.0, 1e-12);
}

TEST(FieldTest, KineticEnergyDecays) {
  Field t0 = Field::Generate(12, 0.0, 0.05);
  Field t1 = Field::Generate(12, 2.0, 0.05);
  EXPECT_GT(t0.KineticEnergy(), t1.KineticEnergy());
  // E(t) = E(0) * exp(-4 nu t) exactly for this flow.
  EXPECT_NEAR(t1.KineticEnergy() / t0.KineticEnergy(),
              std::exp(-4.0 * 0.05 * 2.0), 1e-9);
}

TEST(FieldTest, KineticEnergyMatchesTheory) {
  // Volume average of u^2+v^2 over the periodic box is 1/4; E = 1/8.
  Field field = Field::Generate(32, 0.0, 0.01);
  EXPECT_NEAR(field.KineticEnergy(), 0.125, 1e-9);
}

TEST(FieldTest, VorticityPositive) {
  Field field = Field::Generate(16, 0.0, 0.01);
  EXPECT_GT(field.MaxVorticity(), 0.5);
}

TEST(SliceTest, ExtractsCorrectPlane) {
  Field field = Field::Generate(8, 0.0, 0.01);
  Slice2D slice = *field.Slice('x', 3, Component::kV);
  EXPECT_EQ(slice.n1, 8u);
  EXPECT_EQ(slice.n2, 8u);
  for (size_t j = 0; j < 8; ++j) {
    for (size_t k = 0; k < 8; ++k) {
      EXPECT_DOUBLE_EQ(slice.At(j, k), field.At(Component::kV, 3, j, k));
    }
  }
  Slice2D zslice = *field.Slice('z', 2, Component::kU);
  EXPECT_DOUBLE_EQ(zslice.At(4, 5), field.At(Component::kU, 4, 5, 2));
}

TEST(SliceTest, BoundsChecked) {
  Field field = Field::Generate(8, 0.0, 0.01);
  EXPECT_FALSE(field.Slice('x', 8, Component::kU).ok());
  EXPECT_FALSE(field.Slice('q', 0, Component::kU).ok());
}

TEST(SliceTest, PgmFormat) {
  Field field = Field::Generate(8, 0.0, 0.01);
  Slice2D slice = *field.Slice('z', 0, Component::kU);
  std::string pgm = slice.ToPgm();
  EXPECT_EQ(pgm.substr(0, 3), "P5\n");
  EXPECT_NE(pgm.find("8 8\n255\n"), std::string::npos);
  // Header + exactly 64 pixel bytes.
  size_t header_end = pgm.find("255\n") + 4;
  EXPECT_EQ(pgm.size() - header_end, 64u);
}

TEST(SliceTest, RawBytesIsDataReduction) {
  Field field = Field::Generate(16, 0.0, 0.01);
  Slice2D slice = *field.Slice('x', 0, Component::kU);
  // 3-D -> 2-D: reduction by the grid extent.
  EXPECT_EQ(slice.RawBytes() * 16,
            16ull * 16 * 16 * sizeof(double));
}

TEST(TbfTest, HeaderRoundTrip) {
  Field field = Field::Generate(8, 1.5, 0.02);
  std::string bytes = SerializeTbf(field, 7);
  auto header = ParseTbfHeader(bytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->n, 8u);
  EXPECT_EQ(header->timestep, 7u);
  EXPECT_DOUBLE_EQ(header->time, 1.5);
  EXPECT_DOUBLE_EQ(header->nu, 0.02);
}

TEST(TbfTest, FullRoundTrip) {
  Field field = Field::Generate(8, 0.5, 0.01);
  std::string bytes = SerializeTbf(field, 3);
  EXPECT_EQ(bytes.size(), Field::FileBytes(8));
  auto back = ParseTbf(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->n(), 8u);
  EXPECT_DOUBLE_EQ(back->time(), 0.5);
  for (size_t i = 0; i < 8; i += 3) {
    for (size_t j = 0; j < 8; j += 3) {
      for (size_t k = 0; k < 8; k += 3) {
        EXPECT_DOUBLE_EQ(back->At(Component::kP, i, j, k),
                         field.At(Component::kP, i, j, k));
      }
    }
  }
}

TEST(TbfTest, RejectsGarbage) {
  EXPECT_FALSE(ParseTbf("not a tbf").ok());
  Field field = Field::Generate(4, 0, 0.01);
  std::string bytes = SerializeTbf(field, 0);
  bytes.resize(bytes.size() - 10);  // truncated
  EXPECT_FALSE(ParseTbf(bytes).ok());
}

// ---- Bulk codec against the element-wise oracle ----

constexpr Component kAllComponents[] = {Component::kU, Component::kV,
                                        Component::kW, Component::kP};

/// The element-wise encoder the bulk codec replaced: every value through
/// PutDouble, in component, then i, j, k order.
std::string OracleSerialize(const Field& field, uint32_t timestep) {
  std::string out = "TBF1";
  PutU32(&out, static_cast<uint32_t>(field.n()));
  PutU32(&out, timestep);
  PutDouble(&out, field.time());
  PutDouble(&out, field.nu());
  size_t n = field.n();
  for (Component c : kAllComponents) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        for (size_t k = 0; k < n; ++k) PutDouble(&out, field.At(c, i, j, k));
      }
    }
  }
  return out;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// A generated field with IEEE-754 edge values planted in every component.
Field FieldWithSpecialValues(size_t n) {
  Field field = Field::Generate(n, 0.75, 0.02);
  const double specials[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      FromBits(0x7ff8000000000001ULL),  // quiet NaN with a payload
      FromBits(0x7ff0000000000abcULL),  // signalling NaN with a payload
      FromBits(0xfff8dead0000beefULL),  // negative NaN with a payload
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      FromBits(0x000fffffffffffffULL),  // largest denormal
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
  };
  size_t slot = 0;
  for (Component c : kAllComponents) {
    for (double v : specials) {
      size_t idx = (slot++ * 7919) % (n * n * n);
      field.Set(c, idx / (n * n), (idx / n) % n, idx % n, v);
    }
  }
  return field;
}

TEST(TbfCodecTest, BulkSerializeMatchesElementwiseOracle) {
  for (size_t n : {1u, 3u, 8u}) {
    Field field = FieldWithSpecialValues(n);
    EXPECT_EQ(SerializeTbf(field, 42), OracleSerialize(field, 42)) << n;
  }
  Field empty = Field::Zero(0, 1.0, 0.5);
  EXPECT_EQ(SerializeTbf(empty, 1), OracleSerialize(empty, 1));
}

TEST(TbfCodecTest, BulkParseReturnsTheOracleBits) {
  Field field = FieldWithSpecialValues(8);
  std::string bytes = OracleSerialize(field, 9);
  Result<Field> back = ParseTbf(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->n(), 8u);
  EXPECT_EQ(Bits(back->time()), Bits(field.time()));
  EXPECT_EQ(Bits(back->nu()), Bits(field.nu()));
  // Decode the payload element by element, as the old parser did, and
  // compare bit patterns (NaN payloads and the sign of zero included).
  Decoder dec(std::string_view(bytes).substr(28));
  size_t checked = 0;
  for (Component c : kAllComponents) {
    for (size_t i = 0; i < 8; ++i) {
      for (size_t j = 0; j < 8; ++j) {
        for (size_t k = 0; k < 8; ++k) {
          Result<double> want = dec.GetDouble();
          ASSERT_TRUE(want.ok());
          ASSERT_EQ(Bits(back->At(c, i, j, k)), Bits(*want))
              << ComponentName(c) << " " << i << "," << j << "," << k;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 4u * 512u);
  EXPECT_TRUE(dec.Done());
  // And the round trip reproduces the bytes exactly.
  EXPECT_EQ(SerializeTbf(*back, 9), bytes);
}

TEST(TbfCodecTest, TruncatedAndOversizedInputsKeepTheirMessages) {
  std::string bytes = SerializeTbf(Field::Generate(4, 0, 0.01), 0);
  const size_t want = bytes.size();
  EXPECT_EQ(ParseTbf("not a tbf").status().message(), "not a TBF file");
  EXPECT_EQ(ParseTbf(bytes.substr(0, 27)).status().message(),
            "not a TBF file");
  for (size_t size : {size_t{28}, want - 1, want - 8, want + 1, want + 8}) {
    std::string resized = bytes;
    resized.resize(size, '\x7f');
    Result<Field> parsed = ParseTbf(resized);
    ASSERT_FALSE(parsed.ok()) << size;
    EXPECT_TRUE(parsed.status().IsCorruption()) << size;
    EXPECT_EQ(parsed.status().message(),
              "TBF size mismatch: got " + std::to_string(size) + ", want " +
                  std::to_string(want));
  }
}

TEST(TbfCodecTest, GridSizeThatWrapsTheByteCountIsRejected) {
  // n = 2^22: n^3 * 32 wraps to 0 in 64 bits, so a bare 28-byte header
  // would pass a naive size check and then read far past the input.
  std::string bytes = "TBF1";
  PutU32(&bytes, 1u << 22);
  PutU32(&bytes, 0);
  PutDouble(&bytes, 0);
  PutDouble(&bytes, 0);
  Result<Field> parsed = ParseTbf(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());
}

TEST(TbfCodecTest, FromComponentsChecksSampleCounts) {
  Field::Samples full(8, 1.0), short_one(7, 1.0);
  Result<Field> ok = Field::FromComponents(2, 0.5, 0.01, full, full, full,
                                           full);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->At(Component::kP, 1, 1, 1), 1.0);
  EXPECT_EQ(Field::FromComponents(2, 0.5, 0.01, full, full, short_one,
                                  full)
                  .status()
                  .code(),
            StatusCode::kInvalidArgument);
}

TEST(DatasetSpecTest, SizesMatchPaperScale) {
  // A 256^3 four-field double dataset is ~537 MB — the paper's "large
  // simulation" (544 MB) scale.
  DatasetSpec spec;
  spec.grid_n = 256;
  EXPECT_NEAR(static_cast<double>(spec.SizeBytes()),
              536.9e6, 1e6);
  EXPECT_GT(kLargeSimulationBytes, spec.SizeBytes());
  EXPECT_EQ(kSmallSimulationBytes, 85000000u);
}

TEST(DatasetSpecTest, FileNameFormat) {
  DatasetSpec spec;
  spec.simulation_key = "S19990110150932";
  spec.timestep = 42;
  spec.grid_n = 128;
  EXPECT_EQ(spec.FileName(), "S19990110150932_t0042_n128.tbf");
}

TEST(ArchiveDatasetTest, MaterialisedAndSparse) {
  fs::FileServer server("fs1");
  DatasetSpec spec;
  spec.simulation_key = "S1";
  spec.grid_n = 8;
  spec.materialize = true;
  auto url = ArchiveDataset(&server, "/archive/S1", spec);
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(*url, "http://fs1/archive/S1/S1_t0000_n8.tbf");
  auto stat = server.vfs().Stat("/archive/S1/S1_t0000_n8.tbf");
  ASSERT_TRUE(stat.ok());
  EXPECT_FALSE(stat->sparse);
  // Archived bytes parse back to a valid field.
  auto bytes = server.vfs().ReadFile("/archive/S1/S1_t0000_n8.tbf");
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(ParseTbf(*bytes).ok());

  DatasetSpec sparse = spec;
  sparse.timestep = 1;
  sparse.grid_n = 256;
  sparse.materialize = false;
  auto url2 = ArchiveDataset(&server, "/archive/S1", sparse);
  ASSERT_TRUE(url2.ok());
  auto stat2 = server.vfs().Stat("/archive/S1/S1_t0001_n256.tbf");
  ASSERT_TRUE(stat2.ok());
  EXPECT_TRUE(stat2->sparse);
  EXPECT_EQ(stat2->size, sparse.SizeBytes());
}

class SliceConsistencyTest
    : public ::testing::TestWithParam<std::tuple<char, int>> {};

TEST_P(SliceConsistencyTest, SliceStatsWithinFieldStats) {
  auto [axis, index] = GetParam();
  Field field = Field::Generate(12, 0.2, 0.01);
  for (Component c : {Component::kU, Component::kV, Component::kP}) {
    Slice2D slice = *field.Slice(axis, static_cast<size_t>(index), c);
    FieldStats fs = field.Stats(c);
    FieldStats ss = slice.Stats();
    EXPECT_GE(ss.min, fs.min - 1e-12);
    EXPECT_LE(ss.max, fs.max + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AxesAndIndexes, SliceConsistencyTest,
    ::testing::Combine(::testing::Values('x', 'y', 'z'),
                       ::testing::Values(0, 5, 11)));

}  // namespace
}  // namespace easia::turb
