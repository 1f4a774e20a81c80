#include "quake/octree/etree_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "quake/obs/obs.hpp"
#include "quake/util/checkpoint.hpp"  // crc32

namespace quake::octree {
namespace {

constexpr std::size_t kPageSize = 4096;
// Every on-disk page ends with a CRC32 of its first kPageDataSize bytes, so
// torn writes and bit rot surface as descriptive errors instead of garbage
// reads. Every allocated page is put into the pool before anything can
// fetch it, so a well-formed store never reads a page that was not written:
// a hole in the sparse file fails its checksum like any other bad page.
constexpr std::size_t kPageDataSize = kPageSize - 4;
constexpr std::uint32_t kMagic = 0x45545245;  // "ETRE"
constexpr std::uint32_t kFormatVersion = 2;   // v2: per-page checksums
constexpr std::uint32_t kInvalidPage = 0xffffffffu;

// 12-byte record key: (morton, level), compared lexicographically. Morton
// order is the space-filling-curve order of the linear octree.
struct Key {
  std::uint64_t morton;
  std::uint32_t level;

  friend bool operator<(const Key& a, const Key& b) {
    return a.morton != b.morton ? a.morton < b.morton : a.level < b.level;
  }
  friend bool operator==(const Key& a, const Key& b) = default;
};

Key key_of(const Octant& o) { return Key{o.morton(), o.level}; }

Octant octant_of(const Key& k) {
  const MortonXyz p = morton_decode(k.morton);
  return Octant{p.x, p.y, p.z, static_cast<std::uint8_t>(k.level)};
}

// On-disk page header (both node kinds). Leaves chain through `next` for
// in-order scans.
struct PageHeader {
  std::uint16_t type;   // 1 = leaf, 2 = internal
  std::uint16_t nkeys;
  std::uint32_t next;   // right-sibling leaf, kInvalidPage otherwise
};
constexpr std::uint16_t kLeaf = 1;
constexpr std::uint16_t kInternal = 2;
constexpr std::size_t kHeaderSize = 8;
constexpr std::size_t kKeySize = 12;
constexpr std::size_t kChildSize = 4;

// File header kept in page 0.
struct FileHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint32_t value_size;
  std::uint32_t root_page;
  std::uint32_t page_count;
  std::uint64_t record_count;
};

// Internal layout: nkeys keys then nkeys+1 children, with the child area at
// a fixed offset sized for capacity.
constexpr std::size_t kInternalCapacity =
    (kPageDataSize - kHeaderSize - kChildSize) / (kKeySize + kChildSize);
constexpr std::size_t kChildrenOffset =
    kHeaderSize + kInternalCapacity * kKeySize;

// A page image staged outside the pool: a page built before its frame is
// installed, or a leaf copied out for a scan callback.
using PageBuffer = std::array<std::byte, kPageSize>;

void store_key(std::byte* p, const Key& k) {
  std::memcpy(p, &k.morton, 8);
  std::memcpy(p + 8, &k.level, 4);
}

Key load_key(const std::byte* p) {
  Key k;
  std::memcpy(&k.morton, p, 8);
  std::memcpy(&k.level, p + 8, 4);
  return k;
}

}  // namespace

class EtreeStore::Impl {
 public:
  Impl(std::string path, std::uint32_t value_size, std::size_t pool_pages,
       bool create)
      : path_(std::move(path)), pool_capacity_(std::max<std::size_t>(pool_pages, 4)) {
    const int flags = create ? (O_RDWR | O_CREAT | O_TRUNC) : O_RDWR;
    fd_ = ::open(path_.c_str(), flags, 0644);
    if (fd_ < 0) throw std::runtime_error("EtreeStore: cannot open " + path_);
    if (create) {
      header_ = FileHeader{kMagic, kFormatVersion, value_size, 1, 2, 0};
      PageBuffer root{};
      set_header(root.data(), PageHeader{kLeaf, 0, kInvalidPage});
      put_page(1, root.data());
      write_file_header();
    } else {
      read_file_header();
      if (header_.magic != kMagic) {
        throw std::runtime_error("EtreeStore: bad magic in " + path_);
      }
      if (header_.version != kFormatVersion) {
        throw std::runtime_error(
            "EtreeStore: unsupported format version " +
            std::to_string(header_.version) + " in " + path_ + " (expected " +
            std::to_string(kFormatVersion) + ")");
      }
      if (header_.value_size != value_size) {
        throw std::runtime_error("EtreeStore: value_size mismatch in " + path_);
      }
      if (!is_tree_page(header_.root_page)) {
        throw corrupt_page(0, "root page out of range");
      }
    }
    leaf_entry_ = kKeySize + header_.value_size;
    leaf_capacity_ = (kPageDataSize - kHeaderSize) / leaf_entry_;
  }

  ~Impl() {
    try {
      flush();
    } catch (...) {
      // Destructor must not throw; data loss is reported via errno by the
      // explicit flush() callers use in normal operation.
    }
    ::close(fd_);
  }

  void put(const Octant& o, std::span<const std::byte> value) {
    require_value_size(value.size());
    path_buf_.clear();
    const std::uint32_t leaf = descend(key_of(o), &path_buf_);
    insert_into_leaf(leaf, key_of(o), value);
  }

  bool get(const Octant& o, std::span<std::byte> value_out) {
    require_value_size(value_out.size());
    const Key k = key_of(o);
    const std::uint32_t leaf = descend(k, nullptr);
    const std::byte* page = fetch(leaf);
    const PageHeader h = get_header(page);
    const int pos = leaf_lower_bound(page, h, k);
    if (pos >= h.nkeys || !(leaf_key(page, pos) == k)) return false;
    std::memcpy(value_out.data(), leaf_value_ptr(page, pos),
                header_.value_size);
    return true;
  }

  bool erase(const Octant& o) {
    const Key k = key_of(o);
    const std::uint32_t leaf = descend(k, nullptr);
    std::byte* page = fetch(leaf);
    PageHeader h = get_header(page);
    const int pos = leaf_lower_bound(page, h, k);
    if (pos >= h.nkeys || !(leaf_key(page, pos) == k)) return false;
    std::byte* base = page + kHeaderSize;
    std::memmove(base + pos * leaf_entry_, base + (pos + 1) * leaf_entry_,
                 (h.nkeys - pos - 1) * leaf_entry_);
    h.nkeys -= 1;
    set_header(page, h);
    mark_dirty(leaf);
    header_.record_count -= 1;
    header_dirty_ = true;
    return true;
  }

  std::uint64_t count() const { return header_.record_count; }
  Stats stats() const { return stats_; }

  void scan(const std::function<void(const Octant&,
                                     std::span<const std::byte>)>& fn) {
    // Leftmost leaf, then follow sibling links.
    std::uint32_t id = header_.root_page;
    for (std::uint32_t hops = 0;; ++hops) {
      const std::byte* page = fetch(id);
      if (get_header(page).type == kLeaf) break;
      check_hops(hops, id);
      id = internal_child(page, 0);
    }
    // Each leaf is copied out before the callback runs: `fn` may call back
    // into the store, and any fetch may evict the leaf's frame.
    PageBuffer leaf;
    for (std::uint32_t hops = 0; id != kInvalidPage; ++hops) {
      check_hops(hops, id);
      const std::byte* page = fetch(id);
      const PageHeader h = get_header(page);
      if (h.type != kLeaf) throw corrupt_page(id, "sibling link to a non-leaf");
      std::memcpy(leaf.data(), page, kHeaderSize + h.nkeys * leaf_entry_);
      for (int i = 0; i < h.nkeys; ++i) {
        fn(octant_of(leaf_key(leaf.data(), i)),
           std::span<const std::byte>(leaf_value_ptr(leaf.data(), i),
                                      header_.value_size));
      }
      id = h.next;
    }
  }

  void flush() {
    for (Frame& f : frames_) {
      if (f.id != kInvalidPage && f.dirty) {
        write_page_to_disk(f.id, f.data.get());
        f.dirty = false;
      }
    }
    if (header_dirty_) write_file_header();
  }

 private:
  // One buffer-pool frame. Pages are read, modified and written in place;
  // a pointer into `data` stays valid only until the next fetch or put_page,
  // either of which may evict the frame and reuse it for another page.
  struct Frame {
    std::unique_ptr<std::byte[]> data;
    std::uint32_t id = kInvalidPage;  // kInvalidPage: free
    bool dirty = false;
    std::uint64_t lru = 0;
  };

  // A page whose contents the tree cannot follow (a checksum only proves
  // the page is what was written).
  std::runtime_error corrupt_page(std::uint32_t id, const char* why) const {
    return std::runtime_error("EtreeStore: corrupt page " +
                              std::to_string(id) + " in " + path_ + " (" +
                              why + ")");
  }

  // Page 0 holds the file header; tree pages are 1 .. page_count - 1.
  bool is_tree_page(std::uint32_t id) const {
    return id != 0 && id < header_.page_count;
  }

  // Checks a page as it enters the pool from disk, so the tree code can
  // index its keys and follow its links unchecked: a known type, a key
  // count within that type's capacity, and links to tree pages only.
  void check_page(std::uint32_t id, const std::byte* page) const {
    const PageHeader h = get_header(page);
    const bool leaf = h.type == kLeaf;
    if (!leaf && h.type != kInternal) throw corrupt_page(id, "unknown type");
    if (h.nkeys > (leaf ? leaf_capacity_ : kInternalCapacity)) {
      throw corrupt_page(id, "key count exceeds page capacity");
    }
    if (leaf && h.next != kInvalidPage && !is_tree_page(h.next)) {
      throw corrupt_page(id, "sibling link out of range");
    }
    for (int i = 0; !leaf && i <= h.nkeys; ++i) {
      if (!is_tree_page(internal_child(page, i))) {
        throw corrupt_page(id, "child link out of range");
      }
    }
  }

  // A walk longer than the page count has revisited a page: the links form
  // a cycle.
  void check_hops(std::uint32_t hops, std::uint32_t id) const {
    if (hops >= header_.page_count) throw corrupt_page(id, "link cycle");
  }

  void require_value_size(std::size_t n) const {
    if (n != header_.value_size) {
      throw std::invalid_argument("EtreeStore: wrong value size");
    }
  }

  // -- page accessors ---------------------------------------------------

  static PageHeader get_header(const std::byte* p) {
    PageHeader h;
    std::memcpy(&h, p, sizeof h);
    return h;
  }
  static void set_header(std::byte* p, const PageHeader& h) {
    std::memcpy(p, &h, sizeof h);
  }

  Key leaf_key(const std::byte* p, int i) const {
    return load_key(p + kHeaderSize + i * leaf_entry_);
  }
  const std::byte* leaf_value_ptr(const std::byte* p, int i) const {
    return p + kHeaderSize + i * leaf_entry_ + kKeySize;
  }
  std::byte* leaf_value_ptr(std::byte* p, int i) const {
    return p + kHeaderSize + i * leaf_entry_ + kKeySize;
  }

  static Key internal_key(const std::byte* p, int i) {
    return load_key(p + kHeaderSize + i * kKeySize);
  }
  static void set_internal_key(std::byte* p, int i, const Key& k) {
    store_key(p + kHeaderSize + i * kKeySize, k);
  }
  static std::uint32_t internal_child(const std::byte* p, int i) {
    std::uint32_t c;
    std::memcpy(&c, p + kChildrenOffset + i * kChildSize, 4);
    return c;
  }
  static void set_internal_child(std::byte* p, int i, std::uint32_t c) {
    std::memcpy(p + kChildrenOffset + i * kChildSize, &c, 4);
  }

  int leaf_lower_bound(const std::byte* p, const PageHeader& h,
                       const Key& k) const {
    int lo = 0, hi = h.nkeys;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (leaf_key(p, mid) < k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // -- tree navigation ---------------------------------------------------

  // Returns the leaf page id for `k`; when `path` is non-null, fills it with
  // the internal pages visited (root first).
  std::uint32_t descend(const Key& k, std::vector<std::uint32_t>* path) {
    std::uint32_t id = header_.root_page;
    for (std::uint32_t hops = 0;; ++hops) {
      const std::byte* page = fetch(id);
      const PageHeader h = get_header(page);
      if (h.type == kLeaf) return id;
      check_hops(hops, id);
      if (path) path->push_back(id);
      // First key strictly greater than k gives the child slot.
      int lo = 0, hi = h.nkeys;
      while (lo < hi) {
        const int mid = (lo + hi) / 2;
        if (!(k < internal_key(page, mid))) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      id = internal_child(page, lo);
    }
  }

  // Inserts (k, value) into leaf `leaf_id`, whose internal ancestors are in
  // path_buf_ (root first).
  void insert_into_leaf(std::uint32_t leaf_id, const Key& k,
                        std::span<const std::byte> value) {
    std::byte* page = fetch(leaf_id);
    PageHeader h = get_header(page);
    const int pos = leaf_lower_bound(page, h, k);
    if (pos < h.nkeys && leaf_key(page, pos) == k) {
      std::memcpy(leaf_value_ptr(page, pos), value.data(), value.size());
      mark_dirty(leaf_id);
      return;
    }
    std::byte* base = page + kHeaderSize;
    if (static_cast<std::size_t>(h.nkeys) < leaf_capacity_) {
      std::memmove(base + (pos + 1) * leaf_entry_, base + pos * leaf_entry_,
                   (h.nkeys - pos) * leaf_entry_);
      store_key(base + pos * leaf_entry_, k);
      std::memcpy(base + pos * leaf_entry_ + kKeySize, value.data(),
                  value.size());
      h.nkeys += 1;
      set_header(page, h);
      mark_dirty(leaf_id);
    } else {
      // Split: left keeps the lower half, a new right leaf takes the upper
      // half, then the entry goes to whichever side owns its range.
      const int half = h.nkeys / 2;
      const std::uint32_t right_id = alloc_page();
      PageBuffer right{};
      PageHeader rh{kLeaf, static_cast<std::uint16_t>(h.nkeys - half), h.next};
      std::memcpy(right.data() + kHeaderSize, base + half * leaf_entry_,
                  (h.nkeys - half) * leaf_entry_);
      set_header(right.data(), rh);
      h.nkeys = static_cast<std::uint16_t>(half);
      h.next = right_id;
      set_header(page, h);
      const Key sep = load_key(right.data() + kHeaderSize);
      mark_dirty(leaf_id);
      put_page(right_id, right.data());
      insert_separator(sep, right_id);
      // Retry on the proper side (both pages now have room).
      path_buf_.clear();
      const std::uint32_t target = descend(k, &path_buf_);
      insert_into_leaf(target, k, value);
      return;
    }
    header_.record_count += 1;
    header_dirty_ = true;
  }

  // Inserts separator `sep` with right child `right_id` into the parent at
  // the back of path_buf_, splitting upward as needed.
  void insert_separator(Key sep, std::uint32_t right_id) {
    while (true) {
      if (path_buf_.empty()) {
        // Height grows: new root with one key and two children.
        const std::uint32_t new_root = alloc_page();
        PageBuffer root{};
        set_header(root.data(), PageHeader{kInternal, 1, kInvalidPage});
        set_internal_key(root.data(), 0, sep);
        set_internal_child(root.data(), 0, header_.root_page);
        set_internal_child(root.data(), 1, right_id);
        put_page(new_root, root.data());
        header_.root_page = new_root;
        header_dirty_ = true;
        return;
      }
      const std::uint32_t parent_id = path_buf_.back();
      path_buf_.pop_back();
      std::byte* parent = fetch(parent_id);
      PageHeader h = get_header(parent);
      // Slot for sep.
      int pos = 0;
      while (pos < h.nkeys && internal_key(parent, pos) < sep) ++pos;
      if (static_cast<std::size_t>(h.nkeys) < kInternalCapacity) {
        for (int i = h.nkeys; i > pos; --i) {
          set_internal_key(parent, i, internal_key(parent, i - 1));
        }
        for (int i = h.nkeys + 1; i > pos + 1; --i) {
          set_internal_child(parent, i, internal_child(parent, i - 1));
        }
        set_internal_key(parent, pos, sep);
        set_internal_child(parent, pos + 1, right_id);
        h.nkeys += 1;
        set_header(parent, h);
        mark_dirty(parent_id);
        return;
      }
      // Split the internal node. Gather keys/children with the new entry
      // placed, push up the median.
      const int n = h.nkeys;
      std::vector<Key> keys;
      std::vector<std::uint32_t> kids;
      keys.reserve(n + 1);
      kids.reserve(n + 2);
      for (int i = 0; i < n; ++i) keys.push_back(internal_key(parent, i));
      for (int i = 0; i <= n; ++i) kids.push_back(internal_child(parent, i));
      keys.insert(keys.begin() + pos, sep);
      kids.insert(kids.begin() + pos + 1, right_id);
      const int mid = static_cast<int>(keys.size()) / 2;
      const Key up = keys[mid];

      // The left half is rebuilt in the parent's own frame.
      std::memset(parent, 0, kPageSize);
      set_header(parent, PageHeader{kInternal, static_cast<std::uint16_t>(mid),
                                    kInvalidPage});
      for (int i = 0; i < mid; ++i) set_internal_key(parent, i, keys[i]);
      for (int i = 0; i <= mid; ++i) set_internal_child(parent, i, kids[i]);

      const int rn = static_cast<int>(keys.size()) - mid - 1;
      const std::uint32_t new_right = alloc_page();
      PageBuffer right{};
      set_header(right.data(), PageHeader{kInternal,
                                          static_cast<std::uint16_t>(rn),
                                          kInvalidPage});
      for (int i = 0; i < rn; ++i) {
        set_internal_key(right.data(), i, keys[mid + 1 + i]);
      }
      for (int i = 0; i <= rn; ++i) {
        set_internal_child(right.data(), i, kids[mid + 1 + i]);
      }
      mark_dirty(parent_id);
      put_page(new_right, right.data());
      sep = up;
      right_id = new_right;
      // Loop continues one level up.
    }
  }

  // -- buffer pool --------------------------------------------------------

  // The frame holding page `id`, read from disk on a miss.
  std::byte* fetch(std::uint32_t id) {
    auto it = frame_of_.find(id);
    if (it != frame_of_.end()) {
      ++stats_.cache_hits;
      note_pool_access();
      Frame& f = frames_[it->second];
      f.lru = ++lru_clock_;
      return f.data.get();
    }
    const std::size_t slot = claim_frame();
    Frame& f = frames_[slot];
    read_page_from_disk(id, f.data.get());  // on throw the frame stays free
    check_page(id, f.data.get());
    note_pool_access();
    assign(slot, id, /*dirty=*/false);
    return f.data.get();
  }

  // Running buffer-pool hit rate over every page lookup so far (hits over
  // hits-plus-disk-reads); a gauge, so a merged report shows the rate at
  // the end of the phase that produced it.
  void note_pool_access() const {
    const double denom =
        static_cast<double>(stats_.cache_hits + stats_.page_reads);
    if (denom > 0.0) {
      obs::gauge_set("etree/pool_hit_rate",
                     static_cast<double>(stats_.cache_hits) / denom);
    }
  }

  // Marks the resident page `id`, just modified in its frame, dirty and
  // most recently used.
  void mark_dirty(std::uint32_t id) {
    Frame& f = frames_[frame_of_.at(id)];
    f.dirty = true;
    f.lru = ++lru_clock_;
  }

  // Stores a page image built outside the pool as page `id`.
  void put_page(std::uint32_t id, const std::byte* page) {
    auto it = frame_of_.find(id);
    const std::size_t slot =
        it != frame_of_.end() ? it->second : claim_frame();
    std::memcpy(frames_[slot].data.get(), page, kPageSize);
    assign(slot, id, /*dirty=*/true);
  }

  // A free frame: a new one while the pool is below capacity, else the
  // least recently used one, written back first if dirty.
  std::size_t claim_frame() {
    if (frames_.size() < pool_capacity_) {
      frames_.push_back(Frame{std::make_unique<std::byte[]>(kPageSize)});
      return frames_.size() - 1;
    }
    std::size_t victim = 0;
    for (std::size_t i = 1; i < frames_.size(); ++i) {
      if (frames_[i].lru < frames_[victim].lru) victim = i;
    }
    Frame& f = frames_[victim];
    if (f.id != kInvalidPage) {
      if (f.dirty) write_page_to_disk(f.id, f.data.get());
      frame_of_.erase(f.id);
      f.id = kInvalidPage;
      f.dirty = false;
      f.lru = 0;
    }
    return victim;
  }

  void assign(std::size_t slot, std::uint32_t id, bool dirty) {
    Frame& f = frames_[slot];
    f.id = id;
    f.dirty = dirty;
    f.lru = ++lru_clock_;
    frame_of_[id] = slot;
  }

  std::uint32_t alloc_page() {
    const std::uint32_t id = header_.page_count++;
    header_dirty_ = true;
    return id;
  }

  // -- raw file I/O ---------------------------------------------------------

  void read_page_from_disk(std::uint32_t id, std::byte* page) {
    ++stats_.page_reads;
    obs::counter_add("etree/page_reads", 1);
    const auto off = static_cast<off_t>(id) * static_cast<off_t>(kPageSize);
    const ssize_t n = ::pread(fd_, page, kPageSize, off);
    if (n < 0) throw std::runtime_error("EtreeStore: pread failed");
    if (static_cast<std::size_t>(n) < kPageSize) {
      throw std::runtime_error("EtreeStore: truncated page " +
                               std::to_string(id) + " in " + path_ + " (" +
                               std::to_string(n) + " of " +
                               std::to_string(kPageSize) + " bytes)");
    }
    verify_page(id, page);
  }

  // Checks the trailing CRC32 of a page read from disk.
  void verify_page(std::uint32_t id, const std::byte* page) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(page);
    std::uint32_t stored = 0;
    std::memcpy(&stored, bytes + kPageDataSize, sizeof stored);
    const std::uint32_t computed = util::crc32({bytes, kPageDataSize});
    if (computed != stored) {
      ++stats_.page_verify_failures;
      obs::counter_add("etree/page_verify_failures", 1);
      throw std::runtime_error(
          "EtreeStore: checksum mismatch on page " + std::to_string(id) +
          " in " + path_ + (id == 0 ? " (corrupt or pre-v2 header)" : "") +
          ": stored " + std::to_string(stored) + ", computed " +
          std::to_string(computed));
    }
    ++stats_.pages_verified;
    obs::counter_add("etree/pages_verified", 1);
  }

  // Stamps the page's trailing CRC32 in place, then writes it.
  void write_page_to_disk(std::uint32_t id, std::byte* page) {
    ++stats_.page_writes;
    obs::counter_add("etree/page_writes", 1);
    const auto* data = reinterpret_cast<const unsigned char*>(page);
    const std::uint32_t crc = util::crc32({data, kPageDataSize});
    std::memcpy(page + kPageDataSize, &crc, sizeof crc);
    const auto off = static_cast<off_t>(id) * static_cast<off_t>(kPageSize);
    if (::pwrite(fd_, page, kPageSize, off) !=
        static_cast<ssize_t>(kPageSize)) {
      throw std::runtime_error("EtreeStore: pwrite failed");
    }
  }

  void write_file_header() {
    PageBuffer page{};
    std::memcpy(page.data(), &header_, sizeof header_);
    write_page_to_disk(0, page.data());
    header_dirty_ = false;
  }

  void read_file_header() {
    PageBuffer page;
    read_page_from_disk(0, page.data());
    std::memcpy(&header_, page.data(), sizeof header_);
  }

  std::string path_;
  int fd_ = -1;
  FileHeader header_{};
  bool header_dirty_ = false;
  std::size_t leaf_entry_ = 0;
  std::size_t leaf_capacity_ = 0;

  std::size_t pool_capacity_;
  std::vector<Frame> frames_;
  std::unordered_map<std::uint32_t, std::size_t> frame_of_;  // page -> frame
  std::uint64_t lru_clock_ = 0;
  std::vector<std::uint32_t> path_buf_;  // descend's path during one put
  Stats stats_;
};

EtreeStore::EtreeStore(std::string path, std::uint32_t value_size,
                       std::size_t pool_pages, bool create)
    : impl_(std::make_unique<Impl>(std::move(path), value_size, pool_pages,
                                   create)) {}

EtreeStore::~EtreeStore() = default;

void EtreeStore::put(const Octant& o, std::span<const std::byte> value) {
  impl_->put(o, value);
}
bool EtreeStore::get(const Octant& o, std::span<std::byte> value_out) const {
  return impl_->get(o, value_out);
}
bool EtreeStore::erase(const Octant& o) { return impl_->erase(o); }
std::uint64_t EtreeStore::count() const { return impl_->count(); }
void EtreeStore::scan(
    const std::function<void(const Octant&, std::span<const std::byte>)>& fn)
    const {
  impl_->scan(fn);
}
void EtreeStore::flush() { impl_->flush(); }
EtreeStore::Stats EtreeStore::stats() const { return impl_->stats(); }

}  // namespace quake::octree
