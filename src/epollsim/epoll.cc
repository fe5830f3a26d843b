#include "epollsim/epoll.h"

#include "common/logging.h"

namespace eo::epollsim {

int EpollTable::create() {
  const int id = static_cast<int>(instances_.size());
  instances_.emplace_back();
  instances_.back().id = id;
  return id;
}

EpollInstance& EpollTable::get(int epfd) {
  EO_CHECK(epfd >= 0 && epfd < static_cast<int>(instances_.size()))
      << "bad epoll fd " << epfd;
  return instances_[static_cast<size_t>(epfd)];
}

const EpollInstance& EpollTable::get(int epfd) const {
  EO_CHECK(epfd >= 0 && epfd < static_cast<int>(instances_.size()))
      << "bad epoll fd " << epfd;
  return instances_[static_cast<size_t>(epfd)];
}

}  // namespace eo::epollsim
