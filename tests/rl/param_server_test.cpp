// ParamServer wavefront schedule (DESIGN.md §14) against a serial oracle.
//
// The oracle is the W-window schedule written out with no threads: a queue
// of pending gradients, where episode e first applies (SGD, in episode
// order) every queued gradient that must land before it — exactly the
// first max(0, e-W+1) — then computes its gradient from the parameters it
// sees and queues it. The threaded server must reproduce it bit for bit,
// whichever thread claims which episode and however many threads run.

#include "rl/param_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace minicost::rl {
namespace {

constexpr double kLearningRate = 0.05;
constexpr double kMomentum = 0.9;

std::unique_ptr<nn::Optimizer> make_sgd() {
  return std::make_unique<nn::Sgd>(kLearningRate, kMomentum);
}

/// Episode e's gradient from the parameters it synced. Nonlinear in both,
/// so reading any other apply prefix changes the result.
void gradient(std::size_t episode, std::span<const double> params,
              std::span<double> out) {
  const std::size_t n = params.size();
  for (std::size_t i = 0; i < n; ++i)
    out[i] = std::sin(3.0 * params[i] + 0.1 * static_cast<double>(episode) +
                      static_cast<double>(i)) +
             0.25 * params[(i + 1) % n];
}

struct Params {
  std::vector<double> actor{0.3, -0.7, 1.1, 0.05, -0.2};
  std::vector<double> critic{0.9, -0.4, 0.6};
};

/// Serial W-window schedule over consecutive rounds; optimizer state
/// carries across rounds like the server's.
Params serial_oracle(const std::vector<std::size_t>& rounds,
                     std::size_t window) {
  Params p;
  const std::unique_ptr<nn::Optimizer> actor_opt = make_sgd();
  const std::unique_ptr<nn::Optimizer> critic_opt = make_sgd();
  struct Grads {
    std::vector<double> actor, critic;
  };
  for (const std::size_t episodes : rounds) {
    std::deque<Grads> pending;
    std::size_t applied = 0;
    const auto apply_front = [&] {
      actor_opt->step(p.actor, pending.front().actor);
      critic_opt->step(p.critic, pending.front().critic);
      pending.pop_front();
      ++applied;
    };
    for (std::size_t e = 0; e < episodes; ++e) {
      const std::size_t visible = e + 1 >= window ? e + 1 - window : 0;
      while (applied < visible) apply_front();
      Grads g{std::vector<double>(p.actor.size()),
              std::vector<double>(p.critic.size())};
      gradient(e, p.actor, g.actor);
      gradient(e, p.critic, g.critic);
      pending.push_back(std::move(g));
    }
    while (!pending.empty()) apply_front();
  }
  return p;
}

/// The same rounds through a ParamServer, `threads` workers claiming
/// episodes in ordinal order.
Params run_server(const std::vector<std::size_t>& rounds, std::size_t window,
                  std::size_t threads) {
  Params p;
  ParamServer server(make_sgd);
  server.assign(p.actor, p.critic);
  for (const std::size_t episodes : rounds) {
    server.begin_round(episodes, window);
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      std::vector<double> actor(server.actor_size());
      std::vector<double> critic(server.critic_size());
      std::vector<double> actor_grads(actor.size());
      std::vector<double> critic_grads(critic.size());
      std::size_t e = 0;
      while ((e = next.fetch_add(1, std::memory_order_relaxed)) < episodes) {
        server.sync(e, actor, critic);
        gradient(e, actor, actor_grads);
        gradient(e, critic, critic_grads);
        server.apply(e, actor_grads, critic_grads);
      }
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    server.end_round();
  }
  server.snapshot_into(p.actor, p.critic);
  return p;
}

void expect_bit_identical(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "parameter " << i << ": " << got[i] << " vs " << want[i];
}

TEST(ParamServerTest, WavefrontMatchesSerialWindowOracle) {
  // The second round is shorter than the widest window, so the apply floor
  // min(e + W, total) saturates at the round's end.
  const std::vector<std::size_t> rounds{37, 5};
  for (const std::size_t window : {1u, 2u, 3u, 8u}) {
    const Params want = serial_oracle(rounds, window);
    // W threads is the trainer's layout. 2W threads put episodes inside
    // sync before the apply they must wait for, which is where admitting a
    // sync early would show.
    for (const std::size_t threads : {window, 2 * window}) {
      SCOPED_TRACE("window=" + std::to_string(window) +
                   " threads=" + std::to_string(threads));
      const Params got = run_server(rounds, window, threads);
      expect_bit_identical(got.actor, want.actor);
      expect_bit_identical(got.critic, want.critic);
    }
  }
}

}  // namespace
}  // namespace minicost::rl
