#include "gen.h"

#include <algorithm>
#include <set>

#include "common/tuple.h"

namespace perfbench {
namespace {

constexpr int64_t kBrands = 25;
constexpr int64_t kNations = 25;
constexpr int64_t kMaxLines = 7;  // 1..7 lineitems per order, mean 4
const char* const kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                 "HOUSEHOLD", "MACHINERY"};
const char* const kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                   "4-NOT SPECIFIED", "5-LOW"};

std::string BrandName(int64_t b) { return "Brand#" + std::to_string(10 + b); }

}  // namespace

TpchGen::TpchGen(uint64_t seed, TpchScale scale)
    : seed_(Mix(seed ^ 0x7063685f74706368ULL)),
      scale_(scale),
      hi_(scale.window_orders) {}

const char* TpchGen::SchemaSql() {
  return R"sql(
    CREATE TABLE customer(custkey, nationkey, mktsegment);
    CREATE TABLE part(partkey, brand);
    CREATE TABLE orders(orderkey, custkey, orderdate, priority);
    CREATE TABLE lineitem(orderkey, linenumber, partkey, quantity, price);

    CREATE VIEW cust_revenue(custkey, revenue) AS
      SELECT c.custkey, SUM(l.price)
      FROM customer c, orders o, lineitem l
      WHERE c.custkey = o.custkey AND o.orderkey = l.orderkey
      GROUP BY c.custkey;

    CREATE VIEW brand_revenue(brand, revenue) AS
      SELECT p.brand, SUM(l.price)
      FROM lineitem l, part p
      WHERE l.partkey = p.partkey
      GROUP BY p.brand;

    CREATE VIEW nation_revenue(nationkey, revenue) AS
      SELECT c.nationkey, SUM(l.price)
      FROM customer c, orders o, lineitem l
      WHERE c.custkey = o.custkey AND o.orderkey = l.orderkey
      GROUP BY c.nationkey;

    CREATE VIEW urgent_lines(orderkey, linenumber, custkey, partkey, quantity) AS
      SELECT o.orderkey, l.linenumber, o.custkey, l.partkey, l.quantity
      FROM orders o, lineitem l
      WHERE o.orderkey = l.orderkey AND o.priority = '1-URGENT'
        AND l.quantity >= 40;
  )sql";
}

void TpchGen::AddOrder(int64_t orderkey, bool insert,
                       ivm::ChangeSet* out) const {
  const uint64_t h = Mix(seed_ ^ static_cast<uint64_t>(orderkey));
  const int64_t custkey = static_cast<int64_t>(h % scale_.customers);
  const int64_t orderdate = 19920101 + orderkey / 64;
  const char* priority = kPriorities[(h >> 20) % 5];
  const int64_t lines = 1 + static_cast<int64_t>((h >> 32) % kMaxLines);
  auto emit = [&](const char* rel, const ivm::Tuple& t) {
    if (insert) {
      out->Insert(rel, t);
    } else {
      out->Delete(rel, t);
    }
  };
  emit("orders", ivm::Tup(orderkey, custkey, orderdate, priority));
  for (int64_t line = 1; line <= lines; ++line) {
    const uint64_t hl = Mix(h ^ static_cast<uint64_t>(line));
    const int64_t partkey = static_cast<int64_t>(hl % scale_.parts);
    const int64_t quantity = 1 + static_cast<int64_t>((hl >> 24) % 50);
    const int64_t price = quantity * (900 + partkey % 200);
    emit("lineitem", ivm::Tup(orderkey, line, partkey, quantity, price));
  }
}

void TpchGen::FillBase(ivm::Database* db) const {
  db->CreateRelation("customer", 3).CheckOK();
  db->CreateRelation("part", 2).CheckOK();
  db->CreateRelation("orders", 4).CheckOK();
  db->CreateRelation("lineitem", 5).CheckOK();
  ivm::Relation& customer = db->mutable_relation("customer");
  for (int64_t c = 0; c < scale_.customers; ++c) {
    const uint64_t h = Mix(seed_ ^ (0xc0000000ULL + static_cast<uint64_t>(c)));
    customer.Add(ivm::Tup(c, static_cast<int64_t>(h % kNations),
                          kSegments[(h >> 16) % 5]));
  }
  ivm::Relation& part = db->mutable_relation("part");
  for (int64_t p = 0; p < scale_.parts; ++p) {
    const uint64_t h = Mix(seed_ ^ (0xb0000000ULL + static_cast<uint64_t>(p)));
    part.Add(ivm::Tup(p, BrandName(static_cast<int64_t>(h % kBrands))));
  }
  ivm::ChangeSet window;
  for (int64_t o = lo_; o < hi_; ++o) AddOrder(o, /*insert=*/true, &window);
  for (const auto& [name, delta] : window.deltas()) {
    db->ApplyDelta(name, delta).CheckOK();
  }
}

ivm::ChangeSet TpchGen::NextBatch() {
  ivm::ChangeSet batch;
  for (int64_t i = 0; i < scale_.orders_per_batch; ++i) {
    AddOrder(hi_++, /*insert=*/true, &batch);
    AddOrder(lo_++, /*insert=*/false, &batch);
  }
  return batch;
}

int64_t TpchGen::RandomCustomer(Rng* rng) const {
  return static_cast<int64_t>(rng->Below(scale_.customers));
}

std::string TpchGen::RandomBrand(Rng* rng) const {
  return BrandName(static_cast<int64_t>(rng->Below(kBrands)));
}

GraphGen::GraphGen(uint64_t seed, GraphScale scale)
    : scale_(scale), rng_(Mix(seed ^ 0x67726170685f6763ULL)) {
  for (int64_t c = 0; c < scale_.communities; ++c) {
    const int64_t base = c * scale_.nodes;
    // A ring through every node makes the community one strongly connected
    // component whatever the seed; random chords make it dense.
    std::set<std::pair<int64_t, int64_t>> seen;
    for (int64_t n = 0; n < scale_.nodes; ++n) {
      seen.insert({n, (n + 1) % scale_.nodes});
      edges_.emplace_back(base + n, base + (n + 1) % scale_.nodes);
    }
    while (static_cast<int64_t>(seen.size()) < scale_.edges) {
      const int64_t s = static_cast<int64_t>(rng_.Below(scale_.nodes));
      const int64_t d = static_cast<int64_t>(rng_.Below(scale_.nodes));
      if (s == d || !seen.insert({s, d}).second) continue;
      edges_.emplace_back(base + s, base + d);
    }
  }
}

const char* GraphGen::ProgramText() {
  return "base edge(S, D).\n"
         "reach(X, Y) :- edge(X, Y).\n"
         "reach(X, Y) :- edge(X, Z) & reach(Z, Y).\n";
}

void GraphGen::FillBase(ivm::Database* db) const {
  db->CreateRelation("edge", 2).CheckOK();
  ivm::Relation& edge = db->mutable_relation("edge");
  for (const auto& [s, d] : edges_) edge.Add(ivm::Tup(s, d));
  for (size_t i : deleted_) edge.Erase(ivm::Tup(edges_[i].first, edges_[i].second));
}

ivm::ChangeSet GraphGen::NextBatch() {
  ivm::ChangeSet batch;
  std::vector<size_t> next;
  while (static_cast<int64_t>(next.size()) < scale_.deletes_per_batch) {
    const size_t i = rng_.Below(edges_.size());
    if (std::find(deleted_.begin(), deleted_.end(), i) != deleted_.end() ||
        std::find(next.begin(), next.end(), i) != next.end()) {
      continue;
    }
    next.push_back(i);
  }
  for (size_t i : deleted_) {
    batch.Insert("edge", ivm::Tup(edges_[i].first, edges_[i].second));
  }
  for (size_t i : next) {
    batch.Delete("edge", ivm::Tup(edges_[i].first, edges_[i].second));
  }
  deleted_ = std::move(next);
  return batch;
}

}  // namespace perfbench
