/**
 * @file
 * MiniPy value representation and heap object model.
 *
 * MiniPy is the Python-subset runtime this framework studies. Values
 * are a tagged union of immediate types (none/bool/int/float) and
 * reference-counted heap objects (str/list/tuple/dict/function/class/
 * instance/...), mirroring CPython's boxed, dynamically-typed object
 * model closely enough that the workload's memory and dispatch
 * behaviour is representative.
 *
 * Reference counting is manual-intrusive; cycles are not collected
 * (the workload suite is cycle-free by construction, as documented in
 * DESIGN.md).
 */

#ifndef RIGOR_VM_VALUE_HH
#define RIGOR_VM_VALUE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/logging.hh"

namespace rigor {
namespace vm {

class Object;
class CodeObject;

/** Discriminator for heap object kinds. */
enum class ObjKind : uint8_t
{
    Str,
    List,
    Tuple,
    Dict,
    Function,
    Builtin,
    Class,
    Instance,
    BoundMethod,
    Range,
    Iterator,
    Slice,
};

/** Human-readable kind name ("str", "list", ...). */
const char *objKindName(ObjKind kind);

/**
 * A MiniPy value: none, bool, int, float, or a pointer to a heap
 * Object. Copying a Value adjusts reference counts.
 */
class Value
{
  public:
    enum class Tag : uint8_t { None, Bool, Int, Float, Obj };

    /** Construct none. */
    Value() : tag_(Tag::None) { payload.i = 0; }

    /** Construct a bool. */
    static Value
    makeBool(bool b)
    {
        Value v;
        v.tag_ = Tag::Bool;
        v.payload.b = b;
        return v;
    }

    /** Construct an int. */
    static Value
    makeInt(int64_t i)
    {
        Value v;
        v.tag_ = Tag::Int;
        v.payload.i = i;
        return v;
    }

    /** Construct a float. */
    static Value
    makeFloat(double f)
    {
        Value v;
        v.tag_ = Tag::Float;
        v.payload.f = f;
        return v;
    }

    /** Construct from a heap object, taking a new reference. */
    static inline Value makeObj(Object *o);

    /** Construct from a heap object, *stealing* the caller's reference. */
    static inline Value stealObj(Object *o);

    // Ownership members are defined inline below class Object (see
    // DESIGN.md): every push, pop and temporary in the interpreter
    // runs them, so the compiler must see incRef/decRef to inline them
    // and drop the work on immediates.
    inline Value(const Value &other);
    inline Value(Value &&other) noexcept;
    inline Value &operator=(const Value &other);
    inline Value &operator=(Value &&other) noexcept;
    inline ~Value();

    Tag tag() const { return tag_; }
    bool isNone() const { return tag_ == Tag::None; }
    bool isBool() const { return tag_ == Tag::Bool; }
    bool isInt() const { return tag_ == Tag::Int; }
    bool isFloat() const { return tag_ == Tag::Float; }
    bool isObj() const { return tag_ == Tag::Obj; }
    /** True for objects of the given kind. */
    inline bool isObjKind(ObjKind kind) const;

    bool asBool() const { return payload.b; }
    int64_t asInt() const { return payload.i; }
    double asFloat() const { return payload.f; }
    Object *asObj() const { return payload.o; }

    /** Numeric value as double (int or float). */
    double numeric() const;

    /** Python truthiness. */
    bool truthy() const;

    /** Structural equality (==). */
    bool equals(const Value &other) const;

    /** Hash for dict keys; throws on unhashable types. */
    uint64_t hash(uint64_t seed) const;

    /** repr()-style rendering. */
    std::string repr() const;
    /** str()-style rendering (no quotes around strings). */
    std::string str() const;

    /** Type name for error messages. */
    std::string typeName() const;

  private:
    Tag tag_;
    union {
        bool b;
        int64_t i;
        double f;
        Object *o;
    } payload;
};

/** Runtime error raised by the VM (type errors, name errors, ...). */
class VmError : public std::exception
{
  public:
    explicit VmError(std::string msg) : message(std::move(msg)) {}
    const char *what() const noexcept override { return message.c_str(); }

  private:
    std::string message;
};

/**
 * Base of all heap objects. Intrusively reference-counted. Each
 * object carries a simulated heap address (assigned by the Heap) used
 * by the microarchitecture model for cache simulation.
 */
class Object
{
  public:
    explicit Object(ObjKind kind) : kind_(kind) {}
    virtual ~Object() = default;

    Object(const Object &) = delete;
    Object &operator=(const Object &) = delete;

    ObjKind kind() const { return kind_; }

    void incRef() { ++refCount; }
    void
    decRef()
    {
        if (--refCount == 0)
            delete this;
    }
    uint32_t refs() const { return refCount; }

    /** Simulated heap address (for the uarch model). */
    uint64_t simAddr = 0;
    /** Approximate payload size in bytes (for footprint stats). */
    uint32_t simSize = 32;

  private:
    ObjKind kind_;
    uint32_t refCount = 0;
};

// --- Value ownership (inline: needs Object's incRef/decRef) ---------

inline Value
Value::makeObj(Object *o)
{
    if (!o)
        panic("Value::makeObj: null object");
    Value v;
    v.tag_ = Tag::Obj;
    v.payload.o = o;
    o->incRef();
    return v;
}

inline Value
Value::stealObj(Object *o)
{
    if (!o)
        panic("Value::stealObj: null object");
    Value v;
    v.tag_ = Tag::Obj;
    v.payload.o = o;
    return v;
}

inline Value::Value(const Value &other)
    : tag_(other.tag_), payload(other.payload)
{
    if (tag_ == Tag::Obj)
        payload.o->incRef();
}

inline Value::Value(Value &&other) noexcept
    : tag_(other.tag_), payload(other.payload)
{
    other.tag_ = Tag::None;
    other.payload.i = 0;
}

inline Value &
Value::operator=(const Value &other)
{
    if (this == &other)
        return *this;
    if (other.tag_ == Tag::Obj)
        other.payload.o->incRef();
    if (tag_ == Tag::Obj)
        payload.o->decRef();
    tag_ = other.tag_;
    payload = other.payload;
    return *this;
}

inline Value &
Value::operator=(Value &&other) noexcept
{
    if (this == &other)
        return *this;
    if (tag_ == Tag::Obj)
        payload.o->decRef();
    tag_ = other.tag_;
    payload = other.payload;
    other.tag_ = Tag::None;
    other.payload.i = 0;
    return *this;
}

inline Value::~Value()
{
    if (tag_ == Tag::Obj)
        payload.o->decRef();
}

inline bool
Value::isObjKind(ObjKind kind) const
{
    return tag_ == Tag::Obj && payload.o->kind() == kind;
}

/** Immutable string. */
class StrObj : public Object
{
  public:
    explicit StrObj(std::string s)
        : Object(ObjKind::Str), value(std::move(s))
    {
        simSize = static_cast<uint32_t>(48 + value.size());
    }

    std::string value;
};

/** Mutable list. */
class ListObj : public Object
{
  public:
    ListObj() : Object(ObjKind::List) {}

    std::vector<Value> items;
};

/** Immutable tuple. */
class TupleObj : public Object
{
  public:
    TupleObj() : Object(ObjKind::Tuple) {}

    std::vector<Value> items;
};

/**
 * Open-addressing hash table with per-interpreter seed, used both for
 * MiniPy dicts and for class/instance attribute namespaces. Preserves
 * insertion order for iteration (CPython 3.7+ semantics).
 */
class DictObj : public Object
{
  public:
    explicit DictObj(uint64_t seed)
        : Object(ObjKind::Dict), hashSeed(seed)
    {}

    /** Insert or overwrite. */
    void set(const Value &key, const Value &val);
    /** Lookup; returns nullptr if absent. */
    const Value *find(const Value &key) const;
    /** Remove a key; returns false if absent. */
    bool erase(const Value &key);
    /** Number of live entries. */
    size_t size() const { return liveCount; }
    /** Drop all entries. */
    void clear();

    /** One entry in insertion order; erased entries are tombstones. */
    struct Entry
    {
        Value key;
        Value value;
        bool live = false;
    };

    /** Entries in insertion order (including tombstones; check live). */
    const std::vector<Entry> &entries() const { return order; }

    uint64_t hashSeed;

  private:
    void rehash();
    /** Probe for the slot of key; returns index into `slots`. */
    size_t probe(const Value &key, uint64_t h) const;

    // slots map hash positions to indices into `order` (-1 = empty,
    // -2 = tombstone).
    std::vector<int32_t> slots;
    std::vector<Entry> order;
    size_t liveCount = 0;
};

/** User-defined function: code + globals binding. */
class FunctionObj : public Object
{
  public:
    FunctionObj() : Object(ObjKind::Function) {}
    ~FunctionObj() override;

    std::string name;
    const CodeObject *code = nullptr;  ///< owned by the Program
    /** Default values for trailing parameters. */
    std::vector<Value> defaults;
    /** Module globals dict (borrowed; owned by the Interp). */
    DictObj *globals = nullptr;
};

class Interp;

/** Native builtin function. */
class BuiltinObj : public Object
{
  public:
    using Fn = Value (*)(Interp &, std::vector<Value> &);

    BuiltinObj(std::string n, Fn f, int min_args, int max_args)
        : Object(ObjKind::Builtin), name(std::move(n)), fn(f),
          minArgs(min_args), maxArgs(max_args)
    {}

    std::string name;
    Fn fn;
    int minArgs;  ///< minimum arity
    int maxArgs;  ///< maximum arity (-1 = unbounded)
};

/** User-defined class. */
class ClassObj : public Object
{
  public:
    explicit ClassObj(uint64_t hash_seed);
    ~ClassObj() override;

    /** Look up an attribute on this class or its bases. */
    const Value *lookup(const Value &name) const;

    std::string name;
    ClassObj *base = nullptr;  ///< strong reference (incRef'd)
    DictObj *attrs = nullptr;  ///< strong reference: methods and class vars
};

/** Instance of a user-defined class. */
class InstanceObj : public Object
{
  public:
    InstanceObj(ClassObj *cls_, uint64_t hash_seed);
    ~InstanceObj() override;

    ClassObj *cls;     ///< strong reference
    DictObj *fields;   ///< strong reference: instance attribute dict
};

/** A method bound to its receiver. */
class BoundMethodObj : public Object
{
  public:
    BoundMethodObj(Value recv, Value fn)
        : Object(ObjKind::BoundMethod), receiver(std::move(recv)),
          callee(std::move(fn))
    {}

    Value receiver;
    Value callee;  ///< FunctionObj or BuiltinObj
};

/** Lazy range(start, stop, step). */
class RangeObj : public Object
{
  public:
    RangeObj(int64_t start_, int64_t stop_, int64_t step_)
        : Object(ObjKind::Range), start(start_), stop(stop_), step(step_)
    {}

    /** Number of elements produced. */
    int64_t length() const;

    int64_t start;
    int64_t stop;
    int64_t step;
};

/** Slice bound holder for a[i:j:k] (missing bounds are none). */
class SliceObj : public Object
{
  public:
    SliceObj() : Object(ObjKind::Slice) {}

    Value start;
    Value stop;
    Value step;
};

/** Iterator over a container (list/tuple/str/range/dict views). */
class IteratorObj : public Object
{
  public:
    enum class Source : uint8_t
    {
        List, Tuple, Str, Range, DictKeys, DictValues, DictItems,
    };

    IteratorObj(Source src, Value container_)
        : Object(ObjKind::Iterator), source(src),
          container(std::move(container_))
    {}

    /**
     * Advance; returns true and stores the next element in `out`, or
     * returns false at exhaustion.
     * @param hash_seed interpreter hash seed (for building item tuples).
     */
    bool next(Value &out, uint64_t hash_seed);

    Source source;
    Value container;
    size_t index = 0;
    int64_t cursor = 0;   ///< current value for range iteration
    bool primed = false;
};

/** Convenience: make a str Value (steals nothing; fresh object). */
Value makeStr(std::string s);

} // namespace vm
} // namespace rigor

#endif // RIGOR_VM_VALUE_HH
