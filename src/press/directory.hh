/**
 * @file
 * Each node's view of what every node caches ("locality information
 * takes the form of the names of the files that are currently
 * cached"), maintained from cache-update broadcasts and cache-info
 * transfers, and purged wholesale when a node is excluded from the
 * cluster.
 *
 * File ids are Zipf ranks, dense from 0, so the directory is one flat
 * array of node bitsets, file-major: the row of file f is
 * ceil(numNodes/64) words, grown on first mention of a higher id. A
 * copy is a plain vector copy, which is what makes snapshotting a
 * server's directory cheap.
 */

#ifndef PERFORMA_PRESS_DIRECTORY_HH
#define PERFORMA_PRESS_DIRECTORY_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace performa::press {

/**
 * The set of nodes recorded for one file: a view of its bitset row,
 * iterated in ascending node id. Valid until the directory changes.
 */
class NodeSet
{
  public:
    class Iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = sim::NodeId;
        using difference_type = std::ptrdiff_t;
        using pointer = const sim::NodeId *;
        using reference = sim::NodeId;

        Iterator() = default;
        /** Positioned at the first node in word @p w of @p row. */
        Iterator(const std::uint64_t *row, std::size_t words,
                 std::size_t w)
            : row_(row), words_(words), w_(w)
        {
            bits_ = w_ < words_ ? row_[w_] : 0;
            skipEmptyWords();
        }

        sim::NodeId
        operator*() const
        {
            return static_cast<sim::NodeId>(w_ * 64 +
                                            std::countr_zero(bits_));
        }

        Iterator &
        operator++()
        {
            bits_ &= bits_ - 1;
            skipEmptyWords();
            return *this;
        }

        /** Iterators of one row compare by position. */
        bool
        operator==(const Iterator &o) const
        {
            return bits_ == o.bits_ && w_ == o.w_;
        }

      private:
        void
        skipEmptyWords()
        {
            while (bits_ == 0 && w_ < words_) {
                if (++w_ < words_)
                    bits_ = row_[w_];
            }
        }

        const std::uint64_t *row_ = nullptr;
        std::size_t words_ = 0;
        std::size_t w_ = 0;
        std::uint64_t bits_ = 0;
    };

    NodeSet() = default;
    NodeSet(const std::uint64_t *row, std::size_t words)
        : row_(row), words_(words)
    {}

    Iterator begin() const { return {row_, words_, 0}; }
    Iterator end() const { return {row_, words_, words_}; }

    bool empty() const { return begin() == end(); }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (std::size_t w = 0; w < words_; ++w)
            n += static_cast<std::size_t>(std::popcount(row_[w]));
        return n;
    }

  private:
    const std::uint64_t *row_ = nullptr;
    std::size_t words_ = 0;
};

/**
 * fileId -> set-of-nodes bitsets with per-node entry counts.
 */
class Directory
{
  public:
    /** @param num_nodes One more than the highest node id recorded. */
    explicit Directory(std::size_t num_nodes = 64)
        : words_(std::max<std::size_t>(1, (num_nodes + 63) / 64)),
          entries_(num_nodes, 0)
    {}

    /** Record that @p node caches @p f. */
    void
    add(sim::FileId f, sim::NodeId node)
    {
        if (node >= entries_.size())
            PANIC("directory: node ", node, " outside a ",
                  entries_.size(), "-node cluster");
        if (!hasRow(f))
            rows_.resize((std::size_t(f) + 1) * words_);
        std::uint64_t &w = rows_[f * words_ + node / 64];
        std::uint64_t bit = std::uint64_t(1) << (node % 64);
        if (!(w & bit)) {
            w |= bit;
            ++entries_[node];
        }
    }

    /** Record that @p node no longer caches @p f. */
    void
    remove(sim::FileId f, sim::NodeId node)
    {
        if (!hasRow(f) || node >= entries_.size())
            return;
        std::uint64_t &w = rows_[f * words_ + node / 64];
        std::uint64_t bit = std::uint64_t(1) << (node % 64);
        if (w & bit) {
            w &= ~bit;
            --entries_[node];
        }
    }

    /** Drop all knowledge about @p node (node excluded). */
    void
    purgeNode(sim::NodeId node)
    {
        if (node >= entries_.size() || entries_[node] == 0)
            return;
        std::uint64_t keep = ~(std::uint64_t(1) << (node % 64));
        for (std::size_t i = node / 64; i < rows_.size(); i += words_)
            rows_[i] &= keep;
        entries_[node] = 0;
    }

    /** Nodes believed to cache @p f (possibly empty), ascending. */
    NodeSet
    nodesFor(sim::FileId f) const
    {
        if (!hasRow(f))
            return {};
        return {rows_.data() + f * words_, words_};
    }

    /** Number of (file, node) entries for @p node. */
    std::size_t
    entriesOf(sim::NodeId node) const
    {
        return node < entries_.size() ? entries_[node] : 0;
    }

    void
    clear()
    {
        rows_.clear();
        std::fill(entries_.begin(), entries_.end(), 0);
    }

  private:
    bool hasRow(sim::FileId f) const { return f * words_ < rows_.size(); }

    std::size_t words_;                ///< bitset words per file row
    std::vector<std::uint64_t> rows_;  ///< file-major node bitsets
    std::vector<std::size_t> entries_; ///< set bits per node
};

} // namespace performa::press

#endif // PERFORMA_PRESS_DIRECTORY_HH
