#include "vm/value.hh"

#include <cmath>
#include <cstdio>

namespace rigor {
namespace vm {

const char *
objKindName(ObjKind kind)
{
    switch (kind) {
      case ObjKind::Str: return "str";
      case ObjKind::List: return "list";
      case ObjKind::Tuple: return "tuple";
      case ObjKind::Dict: return "dict";
      case ObjKind::Function: return "function";
      case ObjKind::Builtin: return "builtin_function";
      case ObjKind::Class: return "type";
      case ObjKind::Instance: return "instance";
      case ObjKind::BoundMethod: return "method";
      case ObjKind::Range: return "range";
      case ObjKind::Iterator: return "iterator";
      case ObjKind::Slice: return "slice";
    }
    return "?";
}

double
Value::numeric() const
{
    if (tag_ == Tag::Int)
        return static_cast<double>(payload.i);
    if (tag_ == Tag::Float)
        return payload.f;
    if (tag_ == Tag::Bool)
        return payload.b ? 1.0 : 0.0;
    throw VmError("expected a number, got " + typeName());
}

bool
Value::truthy() const
{
    switch (tag_) {
      case Tag::None:
        return false;
      case Tag::Bool:
        return payload.b;
      case Tag::Int:
        return payload.i != 0;
      case Tag::Float:
        return payload.f != 0.0;
      case Tag::Obj:
        switch (payload.o->kind()) {
          case ObjKind::Str:
            return !static_cast<StrObj *>(payload.o)->value.empty();
          case ObjKind::List:
            return !static_cast<ListObj *>(payload.o)->items.empty();
          case ObjKind::Tuple:
            return !static_cast<TupleObj *>(payload.o)->items.empty();
          case ObjKind::Dict:
            return static_cast<DictObj *>(payload.o)->size() != 0;
          case ObjKind::Range:
            return static_cast<RangeObj *>(payload.o)->length() != 0;
          default:
            return true;
        }
    }
    return false;
}

bool
Value::equals(const Value &other) const
{
    // Numeric cross-type equality (int == float, bool == int).
    auto numericTag = [](Tag t) {
        return t == Tag::Int || t == Tag::Float || t == Tag::Bool;
    };
    if (numericTag(tag_) && numericTag(other.tag_)) {
        if (tag_ == Tag::Int && other.tag_ == Tag::Int)
            return payload.i == other.payload.i;
        return numeric() == other.numeric();
    }
    if (tag_ != other.tag_)
        return false;
    switch (tag_) {
      case Tag::None:
        return true;
      case Tag::Obj:
        break;
      default:
        return false;  // unreachable: numeric handled above
    }

    Object *a = payload.o;
    Object *b = other.payload.o;
    if (a == b)
        return true;
    if (a->kind() != b->kind())
        return false;
    switch (a->kind()) {
      case ObjKind::Str:
        return static_cast<StrObj *>(a)->value ==
            static_cast<StrObj *>(b)->value;
      case ObjKind::List: {
        auto &x = static_cast<ListObj *>(a)->items;
        auto &y = static_cast<ListObj *>(b)->items;
        if (x.size() != y.size())
            return false;
        for (size_t i = 0; i < x.size(); ++i)
            if (!x[i].equals(y[i]))
                return false;
        return true;
      }
      case ObjKind::Tuple: {
        auto &x = static_cast<TupleObj *>(a)->items;
        auto &y = static_cast<TupleObj *>(b)->items;
        if (x.size() != y.size())
            return false;
        for (size_t i = 0; i < x.size(); ++i)
            if (!x[i].equals(y[i]))
                return false;
        return true;
      }
      default:
        return false;  // identity already checked
    }
}

namespace {

uint64_t
mix(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

uint64_t
hashBytes(const std::string &s, uint64_t seed)
{
    // FNV-1a seeded.
    uint64_t h = 1469598103934665603ULL ^ seed;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace

uint64_t
Value::hash(uint64_t seed) const
{
    switch (tag_) {
      case Tag::None:
        return mix(seed, 0x6e6f6e65ULL);
      case Tag::Bool:
        return mix(seed, payload.b ? 2 : 1);
      case Tag::Int:
        return mix(seed, static_cast<uint64_t>(payload.i));
      case Tag::Float: {
        double f = payload.f;
        // Ints and equal floats must hash equally.
        if (f == std::floor(f) && std::fabs(f) < 1e18)
            return mix(seed, static_cast<uint64_t>(
                static_cast<int64_t>(f)));
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(f));
        __builtin_memcpy(&bits, &f, sizeof(bits));
        return mix(seed, bits);
      }
      case Tag::Obj:
        switch (payload.o->kind()) {
          case ObjKind::Str:
            return hashBytes(static_cast<StrObj *>(payload.o)->value,
                             seed);
          case ObjKind::Tuple: {
            uint64_t h = mix(seed, 0x7475706cULL);
            for (const auto &v :
                 static_cast<TupleObj *>(payload.o)->items)
                h = mix(h, v.hash(seed));
            return h;
          }
          default:
            throw VmError("unhashable type: '" +
                          std::string(objKindName(payload.o->kind())) +
                          "'");
        }
    }
    return 0;
}

namespace {

std::string
floatRepr(double f)
{
    if (f == std::floor(f) && std::fabs(f) < 1e16) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.1f", f);
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", f);
    return buf;
}

} // namespace

std::string
Value::repr() const
{
    switch (tag_) {
      case Tag::None:
        return "None";
      case Tag::Bool:
        return payload.b ? "True" : "False";
      case Tag::Int:
        return std::to_string(payload.i);
      case Tag::Float:
        return floatRepr(payload.f);
      case Tag::Obj:
        break;
    }
    Object *o = payload.o;
    switch (o->kind()) {
      case ObjKind::Str:
        return "'" + static_cast<StrObj *>(o)->value + "'";
      case ObjKind::List: {
        std::string out = "[";
        auto &items = static_cast<ListObj *>(o)->items;
        for (size_t i = 0; i < items.size(); ++i) {
            if (i)
                out += ", ";
            out += items[i].repr();
        }
        return out + "]";
      }
      case ObjKind::Tuple: {
        std::string out = "(";
        auto &items = static_cast<TupleObj *>(o)->items;
        for (size_t i = 0; i < items.size(); ++i) {
            if (i)
                out += ", ";
            out += items[i].repr();
        }
        if (items.size() == 1)
            out += ",";
        return out + ")";
      }
      case ObjKind::Dict: {
        std::string out = "{";
        bool first = true;
        for (const auto &e : static_cast<DictObj *>(o)->entries()) {
            if (!e.live)
                continue;
            if (!first)
                out += ", ";
            first = false;
            out += e.key.repr() + ": " + e.value.repr();
        }
        return out + "}";
      }
      case ObjKind::Function:
        return "<function " + static_cast<FunctionObj *>(o)->name + ">";
      case ObjKind::Builtin:
        return "<built-in function " +
            static_cast<BuiltinObj *>(o)->name + ">";
      case ObjKind::Class:
        return "<class '" + static_cast<ClassObj *>(o)->name + "'>";
      case ObjKind::Instance:
        return "<" + static_cast<InstanceObj *>(o)->cls->name +
            " instance>";
      case ObjKind::BoundMethod:
        return "<bound method>";
      case ObjKind::Range: {
        auto *r = static_cast<RangeObj *>(o);
        return "range(" + std::to_string(r->start) + ", " +
            std::to_string(r->stop) +
            (r->step != 1 ? ", " + std::to_string(r->step) : "") + ")";
      }
      case ObjKind::Iterator:
        return "<iterator>";
      case ObjKind::Slice:
        return "<slice>";
    }
    return "<?>";
}

std::string
Value::str() const
{
    if (isObjKind(ObjKind::Str))
        return static_cast<StrObj *>(payload.o)->value;
    return repr();
}

std::string
Value::typeName() const
{
    switch (tag_) {
      case Tag::None: return "NoneType";
      case Tag::Bool: return "bool";
      case Tag::Int: return "int";
      case Tag::Float: return "float";
      case Tag::Obj:
        if (payload.o->kind() == ObjKind::Instance)
            return static_cast<InstanceObj *>(payload.o)->cls->name;
        return objKindName(payload.o->kind());
    }
    return "?";
}

// --- DictObj --------------------------------------------------------

void
DictObj::rehash()
{
    size_t want = order.size() < 4 ? 8 : order.size() * 4;
    // Round up to a power of two.
    size_t cap = 8;
    while (cap < want)
        cap *= 2;
    slots.assign(cap, -1);
    // Compact the order vector (drop tombstones) while reinserting.
    std::vector<Entry> compacted;
    compacted.reserve(liveCount);
    for (auto &e : order) {
        if (e.live)
            compacted.push_back(std::move(e));
    }
    order = std::move(compacted);
    for (size_t i = 0; i < order.size(); ++i) {
        uint64_t h = order[i].key.hash(hashSeed);
        size_t mask = slots.size() - 1;
        size_t idx = static_cast<size_t>(h) & mask;
        while (slots[idx] >= 0)
            idx = (idx + 1) & mask;
        slots[idx] = static_cast<int32_t>(i);
    }
}

size_t
DictObj::probe(const Value &key, uint64_t h) const
{
    size_t mask = slots.size() - 1;
    size_t idx = static_cast<size_t>(h) & mask;
    size_t first_tombstone = SIZE_MAX;
    for (;;) {
        int32_t s = slots[idx];
        if (s == -1)
            return first_tombstone != SIZE_MAX ? first_tombstone : idx;
        if (s == -2) {
            if (first_tombstone == SIZE_MAX)
                first_tombstone = idx;
        } else if (order[static_cast<size_t>(s)].live &&
                   order[static_cast<size_t>(s)].key.equals(key)) {
            return idx;
        }
        idx = (idx + 1) & mask;
    }
}

void
DictObj::set(const Value &key, const Value &val)
{
    // Rehash on load factor measured over *entries including
    // tombstones*: under insert/erase churn tombstones would
    // otherwise exhaust the empty slots probe chains terminate on.
    if (slots.empty() || (order.size() + 1) * 3 >= slots.size() * 2)
        rehash();
    uint64_t h = key.hash(hashSeed);
    size_t idx = probe(key, h);
    int32_t s = slots[idx];
    if (s >= 0 && order[static_cast<size_t>(s)].live) {
        order[static_cast<size_t>(s)].value = val;
        return;
    }
    Entry e;
    e.key = key;
    e.value = val;
    e.live = true;
    order.push_back(std::move(e));
    slots[idx] = static_cast<int32_t>(order.size() - 1);
    ++liveCount;
    simSize = static_cast<uint32_t>(64 + order.size() * 32);
}

const Value *
DictObj::find(const Value &key) const
{
    if (slots.empty())
        return nullptr;
    uint64_t h = key.hash(hashSeed);
    size_t idx = probe(key, h);
    int32_t s = slots[idx];
    if (s >= 0 && order[static_cast<size_t>(s)].live)
        return &order[static_cast<size_t>(s)].value;
    return nullptr;
}

bool
DictObj::erase(const Value &key)
{
    if (slots.empty())
        return false;
    uint64_t h = key.hash(hashSeed);
    size_t idx = probe(key, h);
    int32_t s = slots[idx];
    if (s < 0 || !order[static_cast<size_t>(s)].live)
        return false;
    order[static_cast<size_t>(s)].live = false;
    order[static_cast<size_t>(s)].key = Value();
    order[static_cast<size_t>(s)].value = Value();
    slots[idx] = -2;
    --liveCount;
    return true;
}

void
DictObj::clear()
{
    slots.clear();
    order.clear();
    liveCount = 0;
}

// --- FunctionObj / ClassObj / InstanceObj ---------------------------

FunctionObj::~FunctionObj() = default;

ClassObj::ClassObj(uint64_t hash_seed)
    : Object(ObjKind::Class)
{
    attrs = new DictObj(hash_seed);
    attrs->incRef();
}

ClassObj::~ClassObj()
{
    if (attrs)
        attrs->decRef();
    if (base)
        base->decRef();
}

const Value *
ClassObj::lookup(const Value &name) const
{
    for (const ClassObj *c = this; c; c = c->base) {
        if (const Value *v = c->attrs->find(name))
            return v;
    }
    return nullptr;
}

InstanceObj::InstanceObj(ClassObj *cls_, uint64_t hash_seed)
    : Object(ObjKind::Instance), cls(cls_)
{
    cls->incRef();
    fields = new DictObj(hash_seed);
    fields->incRef();
}

InstanceObj::~InstanceObj()
{
    fields->decRef();
    cls->decRef();
}

// --- RangeObj / IteratorObj -----------------------------------------

int64_t
RangeObj::length() const
{
    if (step == 0)
        throw VmError("range() arg 3 must not be zero");
    if (step > 0) {
        if (stop <= start)
            return 0;
        return (stop - start + step - 1) / step;
    }
    if (stop >= start)
        return 0;
    return (start - stop + (-step) - 1) / (-step);
}

bool
IteratorObj::next(Value &out, uint64_t hash_seed)
{
    switch (source) {
      case Source::List: {
        auto *l = static_cast<ListObj *>(container.asObj());
        if (index >= l->items.size())
            return false;
        out = l->items[index++];
        return true;
      }
      case Source::Tuple: {
        auto *t = static_cast<TupleObj *>(container.asObj());
        if (index >= t->items.size())
            return false;
        out = t->items[index++];
        return true;
      }
      case Source::Str: {
        auto *s = static_cast<StrObj *>(container.asObj());
        if (index >= s->value.size())
            return false;
        out = makeStr(std::string(1, s->value[index++]));
        return true;
      }
      case Source::Range: {
        auto *r = static_cast<RangeObj *>(container.asObj());
        if (!primed) {
            cursor = r->start;
            primed = true;
        }
        if ((r->step > 0 && cursor >= r->stop) ||
            (r->step < 0 && cursor <= r->stop))
            return false;
        out = Value::makeInt(cursor);
        cursor += r->step;
        return true;
      }
      case Source::DictKeys:
      case Source::DictValues:
      case Source::DictItems: {
        auto *d = static_cast<DictObj *>(container.asObj());
        const auto &entries = d->entries();
        while (index < entries.size() && !entries[index].live)
            ++index;
        if (index >= entries.size())
            return false;
        const auto &e = entries[index++];
        if (source == Source::DictKeys) {
            out = e.key;
        } else if (source == Source::DictValues) {
            out = e.value;
        } else {
            auto *t = new TupleObj();
            t->items.push_back(e.key);
            t->items.push_back(e.value);
            out = Value::makeObj(t);
        }
        (void)hash_seed;
        return true;
      }
    }
    return false;
}

Value
makeStr(std::string s)
{
    return Value::makeObj(new StrObj(std::move(s)));
}

} // namespace vm
} // namespace rigor
