/**
 * @file
 * Flat hash containers for simulator hot paths.
 *
 * The protocol engines used to keep per-block bookkeeping in
 * std::set / std::map, paying a node allocation plus pointer chase
 * per insert and lookup. These replacements use open addressing over
 * a single power-of-two array (linear probing, Fibonacci hashing) so
 * the steady state performs no allocation at all. A container that
 * was never inserted into owns no array: the first insert allocates
 * the minimum capacity, and lookups on an empty container return at
 * once. Engines hold many per-block tables that stay empty for the
 * whole run, so this keeps both construction and copies cheap.
 *
 * Keys are integral. One key value must be reserved as the empty
 * marker (defaults to the all-ones value, which BlockId/Addr/NodeId
 * never take in practice; pick another if it can).
 *
 * Iteration order is unspecified: callers must not let it influence
 * simulation behavior (the determinism contract in DESIGN.md).
 */

#ifndef MSCP_SIM_FLAT_HH
#define MSCP_SIM_FLAT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace mscp
{

namespace detail
{

/** Fibonacci (multiplicative) hash of an integral key. */
inline std::size_t
fibHash(std::uint64_t key)
{
    return static_cast<std::size_t>(
        (key * 0x9e3779b97f4a7c15ull) >> 32);
}

} // namespace detail

/**
 * Open-addressing hash set of integral keys.
 *
 * @tparam K integral key type
 * @tparam Empty key value reserved as the empty slot marker
 */
template <typename K,
          K Empty = std::numeric_limits<K>::max()>
class FlatSet
{
  public:
    FlatSet() = default;

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    bool
    contains(K key) const
    {
        panic_if(key == Empty, "FlatSet key equals empty marker");
        if (count == 0)
            return false;
        std::size_t i = slotOf(key);
        while (slots[i] != Empty) {
            if (slots[i] == key)
                return true;
            i = (i + 1) & mask;
        }
        return false;
    }

    /** @return true if the key was newly inserted. */
    bool
    insert(K key)
    {
        panic_if(key == Empty, "FlatSet key equals empty marker");
        if ((count + 1) * 4 > capacity() * 3)
            rehash(std::max(MinCapacity, capacity() * 2));
        std::size_t i = slotOf(key);
        while (slots[i] != Empty) {
            if (slots[i] == key)
                return false;
            i = (i + 1) & mask;
        }
        slots[i] = key;
        ++count;
        return true;
    }

    /** @return true if the key was present and removed. */
    bool
    erase(K key)
    {
        panic_if(key == Empty, "FlatSet key equals empty marker");
        if (count == 0)
            return false;
        std::size_t i = slotOf(key);
        while (slots[i] != key) {
            if (slots[i] == Empty)
                return false;
            i = (i + 1) & mask;
        }
        removeAt(i);
        --count;
        return true;
    }

    void
    clear()
    {
        std::fill(slots.begin(), slots.end(), Empty);
        count = 0;
    }

  private:
    static constexpr std::size_t MinCapacity = 16;

    std::size_t capacity() const { return slots.size(); }
    std::size_t slotOf(K key) const
    {
        return detail::fibHash(static_cast<std::uint64_t>(key)) &
            mask;
    }

    /** Backward-shift deletion keeps probe chains intact. */
    void
    removeAt(std::size_t i)
    {
        std::size_t j = i;
        while (true) {
            j = (j + 1) & mask;
            if (slots[j] == Empty)
                break;
            std::size_t home = slotOf(slots[j]);
            // Can slots[j] legally move into the hole at i?
            if (((j - home) & mask) >= ((j - i) & mask)) {
                slots[i] = slots[j];
                i = j;
            }
        }
        slots[i] = Empty;
    }

    void
    rehash(std::size_t new_cap)
    {
        std::vector<K> old = std::move(slots);
        slots.assign(new_cap, Empty);
        mask = new_cap - 1;
        for (K key : old) {
            if (key == Empty)
                continue;
            std::size_t i = slotOf(key);
            while (slots[i] != Empty)
                i = (i + 1) & mask;
            slots[i] = key;
        }
    }

    std::vector<K> slots;
    std::size_t mask = 0;
    std::size_t count = 0;
};

/**
 * Open-addressing hash map from an integral key to an arbitrary
 * mapped value. Same design as FlatSet; the mapped values live in a
 * parallel array so erase/rehash move them with the keys.
 */
template <typename K, typename V,
          K Empty = std::numeric_limits<K>::max()>
class FlatMap
{
  public:
    FlatMap() = default;

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    bool contains(K key) const { return findSlot(key) != npos; }

    /** Pointer to the mapped value, or nullptr if absent. */
    V *
    find(K key)
    {
        std::size_t i = findSlot(key);
        return i == npos ? nullptr : &vals[i];
    }

    const V *
    find(K key) const
    {
        std::size_t i = findSlot(key);
        return i == npos ? nullptr : &vals[i];
    }

    /** Mapped value for @p key, default-constructed on first use. */
    V &
    operator[](K key)
    {
        panic_if(key == Empty, "FlatMap key equals empty marker");
        if ((count + 1) * 4 > capacity() * 3)
            rehash(std::max(MinCapacity, capacity() * 2));
        std::size_t i = slotOf(key);
        while (keys[i] != Empty) {
            if (keys[i] == key)
                return vals[i];
            i = (i + 1) & mask;
        }
        keys[i] = key;
        vals[i] = V{};
        ++count;
        return vals[i];
    }

    bool
    erase(K key)
    {
        std::size_t i = findSlot(key);
        if (i == npos)
            return false;
        removeAt(i);
        --count;
        return true;
    }

    void
    clear()
    {
        std::fill(keys.begin(), keys.end(), Empty);
        for (auto &v : vals)
            v = V{};
        count = 0;
    }

  private:
    static constexpr std::size_t MinCapacity = 16;
    static constexpr std::size_t npos =
        std::numeric_limits<std::size_t>::max();

    std::size_t capacity() const { return keys.size(); }
    std::size_t slotOf(K key) const
    {
        return detail::fibHash(static_cast<std::uint64_t>(key)) &
            mask;
    }

    std::size_t
    findSlot(K key) const
    {
        panic_if(key == Empty, "FlatMap key equals empty marker");
        if (count == 0)
            return npos;
        std::size_t i = slotOf(key);
        while (keys[i] != Empty) {
            if (keys[i] == key)
                return i;
            i = (i + 1) & mask;
        }
        return npos;
    }

    void
    removeAt(std::size_t i)
    {
        std::size_t j = i;
        while (true) {
            j = (j + 1) & mask;
            if (keys[j] == Empty)
                break;
            std::size_t home = slotOf(keys[j]);
            if (((j - home) & mask) >= ((j - i) & mask)) {
                keys[i] = keys[j];
                vals[i] = std::move(vals[j]);
                i = j;
            }
        }
        keys[i] = Empty;
        vals[i] = V{};
    }

    void
    rehash(std::size_t new_cap)
    {
        std::vector<K> old_keys = std::move(keys);
        std::vector<V> old_vals = std::move(vals);
        keys.assign(new_cap, Empty);
        vals.assign(new_cap, V{});
        mask = new_cap - 1;
        for (std::size_t s = 0; s < old_keys.size(); ++s) {
            if (old_keys[s] == Empty)
                continue;
            std::size_t i = slotOf(old_keys[s]);
            while (keys[i] != Empty)
                i = (i + 1) & mask;
            keys[i] = old_keys[s];
            vals[i] = std::move(old_vals[s]);
        }
    }

    std::vector<K> keys;
    std::vector<V> vals;
    std::size_t mask = 0;
    std::size_t count = 0;
};

} // namespace mscp

#endif // MSCP_SIM_FLAT_HH
