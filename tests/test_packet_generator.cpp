#include "control/packet_generator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace cebinae {
namespace {

TEST(PacketGenerator, FiresPeriodically) {
  Scheduler sched;
  std::vector<Time> fire_times;
  PacketGenerator gen(sched, Milliseconds(10), [&] { fire_times.push_back(sched.now()); });
  gen.start(Milliseconds(10));
  sched.run_until(Milliseconds(55));
  ASSERT_EQ(fire_times.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(fire_times[i], Milliseconds(10 * (i + 1)));
}

TEST(PacketGenerator, FirstDelayIndependentOfPeriod) {
  Scheduler sched;
  std::vector<Time> fire_times;
  PacketGenerator gen(sched, Milliseconds(10), [&] { fire_times.push_back(sched.now()); });
  gen.start(Milliseconds(3));
  sched.run_until(Milliseconds(25));
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_EQ(fire_times[0], Milliseconds(3));
  EXPECT_EQ(fire_times[1], Milliseconds(13));
}

TEST(PacketGenerator, StopCancelsFutureFirings) {
  Scheduler sched;
  int count = 0;
  PacketGenerator gen(sched, Milliseconds(10), [&] { ++count; });
  gen.start(Milliseconds(10));
  Timer stop(sched, [&] { gen.stop(); });
  stop.arm_after(Milliseconds(25));
  sched.run_until(Seconds(1));
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(gen.running());
}

TEST(PacketGenerator, NoDriftAcrossManyPeriods) {
  Scheduler sched;
  Time last;
  std::uint64_t fires = 0;
  PacketGenerator gen(sched, Microseconds(128), [&] {
    last = sched.now();
    ++fires;
  });
  gen.start(Microseconds(128));
  sched.run_until(Seconds(1));
  EXPECT_EQ(fires, gen.fired());
  // Exactly periodic: last firing at fires * period.
  EXPECT_EQ(last.ns(), static_cast<std::int64_t>(fires) * 128'000);
}

TEST(PacketGenerator, StartIsIdempotent) {
  Scheduler sched;
  int count = 0;
  PacketGenerator gen(sched, Milliseconds(10), [&] { ++count; });
  gen.start(Milliseconds(10));
  gen.start(Milliseconds(1));  // ignored; already running
  sched.run_until(Milliseconds(10));
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace cebinae
