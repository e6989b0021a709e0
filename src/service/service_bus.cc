/**
 * @file
 * ServiceBus implementation: the bounded in-memory frame queue that
 * doubles as the client's receive buffer and the service's sink.
 */
#include "service/service_bus.hh"

#include <condition_variable>
#include <deque>

#include "util/thread_annotations.hh"

namespace dosa::service {

namespace detail {

/**
 * Bounded MPSC frame queue. The service side (`send`) blocks while
 * the queue is full — the backpressure that models a full socket
 * buffer — and fails once the client closed. The client side
 * (`receive`) blocks while empty.
 */
class BusSink : public FrameSink
{
  public:
    explicit BusSink(size_t capacity)
        : capacity_(capacity < 1 ? 1 : capacity)
    {}

    /** Queues every frame as it comes; the delivery hint is moot. */
    bool
    send(const std::string &frame, Delivery /*delivery*/) override
    {
        util::MutexLock lock(mutex_);
        lock.wait(not_full_, [this]() REQUIRES(mutex_) {
            return closed_ || frames_.size() < capacity_;
        });
        if (closed_)
            return false;
        frames_.push_back(frame);
        lock.unlock();
        not_empty_.notify_one();
        return true;
    }

    bool
    receive(std::string &frame)
    {
        util::MutexLock lock(mutex_);
        lock.wait(not_empty_, [this]() REQUIRES(mutex_) {
            return closed_ || !frames_.empty();
        });
        if (closed_)
            return false;
        frame = std::move(frames_.front());
        frames_.pop_front();
        lock.unlock();
        not_full_.notify_one();
        return true;
    }

    void
    close()
    {
        {
            util::MutexLock lock(mutex_);
            closed_ = true;
        }
        not_full_.notify_all();
        not_empty_.notify_all();
    }

  private:
    const size_t capacity_;
    util::Mutex mutex_;
    std::condition_variable not_full_;
    std::condition_variable not_empty_;
    std::deque<std::string> frames_ GUARDED_BY(mutex_);
    bool closed_ GUARDED_BY(mutex_) = false;
};

} // namespace detail

ServiceBus::Client::Client(SearchService &service,
                           size_t reply_capacity)
    : service_(&service),
      sink_(std::make_shared<detail::BusSink>(reply_capacity))
{}

ServiceBus::Client::~Client()
{
    if (sink_)
        sink_->close();
}

void
ServiceBus::Client::send(const std::string &line)
{
    service_->submit(line, sink_);
}

bool
ServiceBus::Client::receive(std::string &frame)
{
    return sink_->receive(frame);
}

void
ServiceBus::Client::close()
{
    sink_->close();
}

} // namespace dosa::service
