#include "kern/klock.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace eo::kern {
namespace {

TEST(KLock, FreeLockNoWait) {
  KLock l;
  EXPECT_TRUE(l.free_at(0));
  EXPECT_EQ(l.acquire(100, 50), 0);
  EXPECT_FALSE(l.free_at(120));
  EXPECT_TRUE(l.free_at(150));
}

TEST(KLock, SerializesOverlappingAcquires) {
  KLock l;
  EXPECT_EQ(l.acquire(0, 100), 0);    // holds [0, 100)
  EXPECT_EQ(l.acquire(30, 100), 70);  // waits until 100, holds [100, 200)
  EXPECT_EQ(l.acquire(50, 100), 150); // waits until 200
}

TEST(KLock, NoContentionAfterRelease) {
  KLock l;
  l.acquire(0, 100);
  EXPECT_EQ(l.acquire(500, 100), 0);
}

TEST(KLock, ConvoyAccumulates) {
  // N back-to-back acquirers at the same instant: the k-th waits k*hold.
  KLock l;
  for (int k = 0; k < 10; ++k) {
    EXPECT_EQ(l.acquire(1000, 200), k * 200);
  }
}

}  // namespace
}  // namespace eo::kern
