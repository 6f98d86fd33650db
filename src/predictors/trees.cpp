#include "predictors/trees.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace ca5g::predictors {
namespace {

double subset_mean(const std::vector<double>& y, const std::vector<std::size_t>& idx,
                   std::size_t begin, std::size_t end) {
  double acc = 0.0;
  for (std::size_t i = begin; i < end; ++i) acc += y[idx[i]];
  return acc / static_cast<double>(end - begin);
}

}  // namespace

std::vector<double> flatten_window(const traces::Window& w) {
  std::vector<double> flat;
  flat.reserve(w.history() * traces::flat_dim(w.cc_slots));
  for (std::size_t t = 0; t < w.history(); ++t) {
    const auto step = w.flat(t);
    flat.insert(flat.end(), step.begin(), step.end());
  }
  return flat;
}

void RegressionTree::fit(const std::vector<std::vector<double>>& x,
                         const std::vector<double>& y, const Config& config,
                         common::Rng& rng) {
  CA5G_CHECK_MSG(!x.empty() && x.size() == y.size(), "tree fit shape mismatch");
  nodes_.clear();
  std::vector<std::size_t> indices(x.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  build(x, y, indices, 0, indices.size(), 0, config, rng);
}

std::int32_t RegressionTree::build(const std::vector<std::vector<double>>& x,
                                   const std::vector<double>& y,
                                   std::vector<std::size_t>& indices, std::size_t begin,
                                   std::size_t end, std::size_t depth, const Config& config,
                                   common::Rng& rng) {
  const auto node_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(node_id)].value = subset_mean(y, indices, begin, end);

  const std::size_t n = end - begin;
  if (depth >= config.max_depth || n < 2 * config.min_samples_leaf) return node_id;

  const std::size_t num_features = x.front().size();
  std::size_t k = config.feature_subsample;
  if (k == 0) k = std::max<std::size_t>(1, static_cast<std::size_t>(std::sqrt(num_features)));
  k = std::min(k, num_features);

  // Candidate features for this split.
  std::vector<std::size_t> features;
  features.reserve(k);
  for (std::size_t i = 0; i < k; ++i)
    features.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_features) - 1)));

  // Best split by variance reduction (equivalently, max sum of child
  // squared-sums). Scan sorted values per candidate feature.
  double best_score = -1.0;
  int best_feature = -1;
  double best_threshold = 0.0;

  double total_sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) total_sum += y[indices[i]];

  std::vector<std::size_t> sorted(indices.begin() + static_cast<std::ptrdiff_t>(begin),
                                  indices.begin() + static_cast<std::ptrdiff_t>(end));
  for (std::size_t f : features) {
    std::sort(sorted.begin(), sorted.end(),
              [&](std::size_t a, std::size_t b) { return x[a][f] < x[b][f]; });
    double left_sum = 0.0;
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      left_sum += y[sorted[i]];
      const std::size_t n_left = i + 1;
      const std::size_t n_right = sorted.size() - n_left;
      if (n_left < config.min_samples_leaf || n_right < config.min_samples_leaf) continue;
      if (x[sorted[i]][f] == x[sorted[i + 1]][f]) continue;  // no valid threshold here
      const double right_sum = total_sum - left_sum;
      const double score = left_sum * left_sum / static_cast<double>(n_left) +
                           right_sum * right_sum / static_cast<double>(n_right);
      if (score > best_score) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (x[sorted[i]][f] + x[sorted[i + 1]][f]);
      }
    }
  }
  if (best_feature < 0) return node_id;

  // Partition indices in place.
  const auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t i) { return x[i][static_cast<std::size_t>(best_feature)] <= best_threshold; });
  const auto mid = static_cast<std::size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate partition

  const auto left = build(x, y, indices, begin, mid, depth + 1, config, rng);
  const auto right = build(x, y, indices, mid, end, depth + 1, config, rng);
  TreeNode& node = nodes_[static_cast<std::size_t>(node_id)];
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_id;
}

double RegressionTree::predict(const std::vector<double>& x) const {
  CA5G_CHECK_MSG(!nodes_.empty(), "predict on unfitted tree");
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const TreeNode& n = nodes_[static_cast<std::size_t>(node)];
    node = x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<std::size_t>(node)].value;
}

// ---- GBDT ------------------------------------------------------------------

void GbdtPredictor::fit(const traces::Dataset& ds,
                        std::span<const traces::Window* const> train,
                        std::span<const traces::Window* const> /*val*/) {
  CA5G_CHECK_MSG(!train.empty(), "GBDT fit on empty training set");
  common::Rng rng(config_.seed);

  std::vector<std::vector<double>> x;
  x.reserve(train.size());
  for (const auto* w : train) x.push_back(flatten_window(*w));

  const std::size_t horizon = ds.horizon();
  base_.assign(horizon, 0.0);
  chains_.assign(horizon, {});

  for (std::size_t h = 0; h < horizon; ++h) {
    std::vector<double> y(train.size());
    for (std::size_t i = 0; i < train.size(); ++i) y[i] = train[i]->target[h];
    double mean = 0.0;
    for (double v : y) mean += v;
    mean /= static_cast<double>(y.size());
    base_[h] = mean;

    std::vector<double> residual(y.size());
    for (std::size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - mean;

    for (std::size_t t = 0; t < config_.num_trees; ++t) {
      RegressionTree tree;
      tree.fit(x, residual, config_.tree, rng);
      for (std::size_t i = 0; i < residual.size(); ++i)
        residual[i] -= config_.learning_rate * tree.predict(x[i]);
      chains_[h].push_back(std::move(tree));
    }
  }
}

std::vector<double> GbdtPredictor::predict(const traces::Window& w) const {
  CA5G_CHECK_MSG(!chains_.empty(), "predict on unfitted GBDT");
  const auto flat = flatten_window(w);
  std::vector<double> out;
  const std::size_t horizon = chains_.size();
  out.reserve(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    double pred = base_[h];
    for (const auto& tree : chains_[h]) pred += config_.learning_rate * tree.predict(flat);
    out.push_back(std::clamp(pred, 0.0, 1.5));
  }
  return out;
}

// ---- Random forest -----------------------------------------------------------

void RandomForestPredictor::fit(const traces::Dataset& ds,
                                std::span<const traces::Window* const> train,
                                std::span<const traces::Window* const> /*val*/) {
  CA5G_CHECK_MSG(!train.empty(), "RF fit on empty training set");
  common::Rng rng(config_.seed);

  std::vector<std::vector<double>> x;
  x.reserve(train.size());
  for (const auto* w : train) x.push_back(flatten_window(*w));

  const std::size_t horizon = ds.horizon();
  forests_.assign(horizon, {});
  for (std::size_t h = 0; h < horizon; ++h) {
    std::vector<double> y(train.size());
    for (std::size_t i = 0; i < train.size(); ++i) y[i] = train[i]->target[h];
    for (std::size_t t = 0; t < config_.num_trees; ++t) {
      // Bootstrap resample.
      std::vector<std::vector<double>> xb(x.size());
      std::vector<double> yb(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(x.size()) - 1));
        xb[i] = x[j];
        yb[i] = y[j];
      }
      RegressionTree tree;
      tree.fit(xb, yb, config_.tree, rng);
      forests_[h].push_back(std::move(tree));
    }
  }
}

std::vector<double> RandomForestPredictor::predict(const traces::Window& w) const {
  CA5G_CHECK_MSG(!forests_.empty(), "predict on unfitted RF");
  const auto flat = flatten_window(w);
  std::vector<double> out;
  const std::size_t horizon = forests_.size();
  out.reserve(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    double acc = 0.0;
    for (const auto& tree : forests_[h]) acc += tree.predict(flat);
    out.push_back(acc / static_cast<double>(forests_[h].size()));
  }
  return out;
}

}  // namespace ca5g::predictors
