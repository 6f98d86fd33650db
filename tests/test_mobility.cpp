// Unit tests for the UE mobility models.
#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "ue/mobility.hpp"

namespace {

using namespace ca5g::ue;
using ca5g::common::Rng;
using ca5g::radio::Position;
using ca5g::radio::distance_m;

TEST(Mobility, StationaryNeverMoves) {
  StationaryMobility m({10.0, -5.0});
  for (int i = 0; i < 100; ++i) {
    const auto p = m.step(1.0);
    EXPECT_DOUBLE_EQ(p.x, 10.0);
    EXPECT_DOUBLE_EQ(p.y, -5.0);
  }
  EXPECT_DOUBLE_EQ(m.nominal_speed(), 0.0);
}

TEST(Mobility, WalkingStaysInArea) {
  WalkingMobility m(Rng(1), {0, 0}, 100.0, 1.4);
  for (int i = 0; i < 5000; ++i) {
    const auto p = m.step(0.5);
    EXPECT_LE(std::abs(p.x), 100.0 + 1e-6);
    EXPECT_LE(std::abs(p.y), 100.0 + 1e-6);
  }
}

TEST(Mobility, WalkingCoversDistanceAtNominalSpeed) {
  WalkingMobility m(Rng(2), {0, 0}, 500.0, 2.0);
  Position prev = m.position();
  double total = 0.0;
  const int steps = 2000;
  for (int i = 0; i < steps; ++i) {
    const auto p = m.step(0.1);
    total += distance_m(prev, p);
    prev = p;
  }
  // Path length equals speed × time (up to waypoint-corner effects).
  EXPECT_NEAR(total, 2.0 * 0.1 * steps, 2.0);
}

TEST(Mobility, WalkingRejectsBadConfig) {
  EXPECT_THROW(WalkingMobility(Rng(3), {0, 0}, -1.0, 1.0), ca5g::common::CheckError);
  EXPECT_THROW(WalkingMobility(Rng(3), {0, 0}, 10.0, 0.0), ca5g::common::CheckError);
}

TEST(Mobility, DrivingFollowsRoute) {
  // Straight eastbound route: y must remain 0, x must advance.
  DrivingMobility m(Rng(4), {{0, 0}, {1000, 0}}, 20.0, 0.0);
  double prev_x = 0.0;
  for (int i = 0; i < 20; ++i) {
    const auto p = m.step(1.0);
    EXPECT_NEAR(p.y, 0.0, 1e-9);
    EXPECT_GE(p.x + 1e-9, prev_x);
    prev_x = p.x;
  }
  EXPECT_GT(prev_x, 300.0);  // ≈ 20 m/s × 20 s with jitter
  EXPECT_LT(prev_x, 500.0);
}

TEST(Mobility, DrivingLoopsRoute) {
  DrivingMobility m(Rng(5), {{0, 0}, {50, 0}}, 25.0, 0.0);
  // After driving far beyond the route length, position stays on-route.
  for (int i = 0; i < 100; ++i) {
    const auto p = m.step(1.0);
    EXPECT_GE(p.x, -1e-9);
    EXPECT_LE(p.x, 50.0 + 1e-9);
  }
}

TEST(Mobility, DrivingStopsAtLights) {
  // With an extreme stop rate the vehicle must spend time stationary.
  DrivingMobility m(Rng(6), {{0, 0}, {10000, 0}}, 15.0, 30.0, 10.0);
  int stationary_steps = 0;
  Position prev = m.position();
  for (int i = 0; i < 600; ++i) {
    const auto p = m.step(1.0);
    if (distance_m(prev, p) < 1e-9) ++stationary_steps;
    prev = p;
  }
  EXPECT_GT(stationary_steps, 50);
}

TEST(Mobility, DrivingRejectsBadConfig) {
  EXPECT_THROW(DrivingMobility(Rng(7), {{0, 0}}, 10.0), ca5g::common::CheckError);
  EXPECT_THROW(DrivingMobility(Rng(7), {{0, 0}, {1, 1}}, 0.0), ca5g::common::CheckError);
}

}  // namespace
