// The socket wrappers (DESIGN §12) set TCP_NODELAY on both ends of a
// connection: frames are written whole, so Nagle's algorithm would only
// hold small responses back until the peer ACKs.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include "doduo/serve/socket_io.h"
#include "gtest/gtest.h"

namespace doduo::serve {
namespace {

int NoDelay(int fd) {
  int value = -1;
  socklen_t len = sizeof(value);
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value;
}

TEST(SocketIoTest, BothEndsOfALoopbackPairHaveNoDelay) {
  auto listener = ListenTcp("127.0.0.1", 0, /*backlog=*/1);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto port = LocalPort(listener.value().get());
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  auto client = ConnectTcp("127.0.0.1", port.value());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto server = AcceptWithTimeout(listener.value().get(), /*timeout_ms=*/5000);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value().valid());
  EXPECT_NE(NoDelay(client.value().get()), 0);
  EXPECT_NE(NoDelay(server.value().get()), 0);
}

}  // namespace
}  // namespace doduo::serve
