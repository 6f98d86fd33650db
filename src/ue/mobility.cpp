#include "ue/mobility.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace ca5g::ue {

WalkingMobility::WalkingMobility(common::Rng rng, radio::Position start,
                                 double area_half_extent_m, double speed_mps)
    : rng_(rng), origin_(start), pos_(start), half_extent_(area_half_extent_m),
      speed_(speed_mps) {
  CA5G_CHECK_MSG(area_half_extent_m > 0.0, "walking area must be positive");
  CA5G_CHECK_MSG(speed_mps > 0.0, "walking speed must be positive");
  pick_waypoint();
}

void WalkingMobility::pick_waypoint() {
  waypoint_.x = origin_.x + rng_.uniform(-half_extent_, half_extent_);
  waypoint_.y = origin_.y + rng_.uniform(-half_extent_, half_extent_);
}

radio::Position WalkingMobility::step(double dt_s) {
  double budget = speed_ * dt_s;
  while (budget > 0.0) {
    const double dist = radio::distance_m(pos_, waypoint_);
    if (dist <= budget) {
      pos_ = waypoint_;
      budget -= dist;
      pick_waypoint();
      if (radio::distance_m(pos_, waypoint_) < 1e-6) break;  // degenerate waypoint
    } else {
      const double frac = budget / dist;
      pos_.x += (waypoint_.x - pos_.x) * frac;
      pos_.y += (waypoint_.y - pos_.y) * frac;
      budget = 0.0;
    }
  }
  return pos_;
}

DrivingMobility::DrivingMobility(common::Rng rng, std::vector<radio::Position> route,
                                 double speed_mps, double stop_probability_per_min,
                                 double stop_duration_s)
    : rng_(rng), route_(std::move(route)), speed_(speed_mps),
      stop_probability_per_min_(stop_probability_per_min), stop_duration_s_(stop_duration_s) {
  CA5G_CHECK_MSG(route_.size() >= 2, "driving route needs at least two waypoints");
  CA5G_CHECK_MSG(speed_mps > 0.0, "driving speed must be positive");
  pos_ = route_.front();
}

radio::Position DrivingMobility::step(double dt_s) {
  if (stop_remaining_s_ > 0.0) {
    stop_remaining_s_ -= dt_s;
    return pos_;
  }
  // Poisson-like stop events (urban traffic lights).
  if (stop_probability_per_min_ > 0.0 &&
      rng_.bernoulli(stop_probability_per_min_ * dt_s / 60.0)) {
    stop_remaining_s_ = stop_duration_s_ * rng_.uniform(0.5, 1.5);
    return pos_;
  }

  // ±15% speed jitter around the nominal speed.
  double budget = speed_ * rng_.uniform(0.85, 1.15) * dt_s;
  while (budget > 0.0 && segment_ + 1 < route_.size()) {
    const radio::Position& a = route_[segment_];
    const radio::Position& b = route_[segment_ + 1];
    const double seg_len = radio::distance_m(a, b);
    const double remaining = seg_len - segment_progress_;
    if (remaining <= budget) {
      budget -= remaining;
      ++segment_;
      segment_progress_ = 0.0;
      pos_ = b;
    } else {
      segment_progress_ += budget;
      const double frac = segment_progress_ / seg_len;
      pos_.x = a.x + (b.x - a.x) * frac;
      pos_.y = a.y + (b.y - a.y) * frac;
      budget = 0.0;
    }
  }
  // Loop the route so long simulations keep moving.
  if (segment_ + 1 >= route_.size()) {
    segment_ = 0;
    segment_progress_ = 0.0;
  }
  return pos_;
}

}  // namespace ca5g::ue
