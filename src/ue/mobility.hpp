// UE mobility models for the paper's three measurement modes:
// stationary (hot-spot line-of-sight), walking (indoor/outdoor,
// ~1.4 m/s random waypoints), and driving (waypoint routes at urban /
// suburban / beltway speeds with stop-and-go).
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "radio/propagation.hpp"

namespace ca5g::ue {

/// Polymorphic mobility model advanced in fixed time steps.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Advance by dt seconds; returns the new position.
  virtual radio::Position step(double dt_s) = 0;

  [[nodiscard]] virtual radio::Position position() const = 0;

  /// Mean speed in m/s (0 for stationary) — used for reporting.
  [[nodiscard]] virtual double nominal_speed() const = 0;
};

/// UE pinned at a fixed location (ideal-condition measurements).
class StationaryMobility final : public MobilityModel {
 public:
  explicit StationaryMobility(radio::Position pos) : pos_(pos) {}
  radio::Position step(double /*dt_s*/) override { return pos_; }
  [[nodiscard]] radio::Position position() const override { return pos_; }
  [[nodiscard]] double nominal_speed() const override { return 0.0; }

 private:
  radio::Position pos_;
};

/// Random-waypoint walking inside a rectangular area.
class WalkingMobility final : public MobilityModel {
 public:
  WalkingMobility(common::Rng rng, radio::Position start, double area_half_extent_m,
                  double speed_mps = 1.4);
  radio::Position step(double dt_s) override;
  [[nodiscard]] radio::Position position() const override { return pos_; }
  [[nodiscard]] double nominal_speed() const override { return speed_; }

 private:
  void pick_waypoint();

  common::Rng rng_;
  radio::Position origin_;
  radio::Position pos_;
  radio::Position waypoint_;
  double half_extent_;
  double speed_;
};

/// Driving along a fixed route of waypoints, with speed noise and
/// occasional stops (traffic lights) in urban settings.
class DrivingMobility final : public MobilityModel {
 public:
  DrivingMobility(common::Rng rng, std::vector<radio::Position> route, double speed_mps,
                  double stop_probability_per_min = 0.0, double stop_duration_s = 15.0);
  radio::Position step(double dt_s) override;
  [[nodiscard]] radio::Position position() const override { return pos_; }
  [[nodiscard]] double nominal_speed() const override { return speed_; }

 private:
  common::Rng rng_;
  std::vector<radio::Position> route_;
  std::size_t segment_ = 0;      ///< index of the segment start waypoint
  double segment_progress_ = 0;  ///< metres into the current segment
  radio::Position pos_;
  double speed_;
  double stop_probability_per_min_;
  double stop_duration_s_;
  double stop_remaining_s_ = 0.0;
};

}  // namespace ca5g::ue
