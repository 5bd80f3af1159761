/* Native engine core: Event and EventQueue as C types.
 *
 * This is the compiled backend behind ``ClusterConfig.backend`` — a
 * hand-written CPython extension mirroring ``repro.engine.events`` with
 * the interpreter taken out of the inner loop.  The contract is strict
 * behavioural parity with the pure-python reference implementation:
 *
 *   * identical pop order: a min-heap on ``(time, seq)`` with lazy
 *     deletion and the same compaction thresholds,
 *   * identical exception types and messages on misuse,
 *   * identical counter semantics (``len`` = live events, ``dead_entries``
 *     = cancelled entries still occupying heap slots),
 *   * pickling that degrades to the *pure-python* Event class, so
 *     snapshots captured under the native backend restore anywhere.
 *
 * All queue keys are integer nanoseconds (``SimTime``); they are held as
 * C ``long long`` and compared with integer comparisons — there is no
 * floating point in this module, so there is nothing to keep IEEE-exact.
 * Times beyond ``2**63 - 1`` ns (~292 simulated years) raise
 * ``OverflowError`` instead of silently wrapping.
 *
 * The queue also owns node-event dispatch: the fused window-drain loop
 * (``drain``, ground-truth windows) and its single-event form
 * (``handle_next``, interleaved windows).  The pure-python twins live in
 * ``EventQueue`` and all four dispatch by tag to the same handler call
 * sites, so every stepper of the cluster driver is backend-agnostic.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <limits.h>

#define NATIVE_ABI_VERSION 1

/* Compaction thresholds — must match EventQueue._COMPACT_MIN_DEAD and the
 * dead*2 > len(heap) trigger in the python reference. */
#define COMPACT_MIN_DEAD 16

/* ------------------------------------------------------------------ */
/* Module state (interned tag singletons, portable-pickle helper)      */
/* ------------------------------------------------------------------ */

static PyObject *s_app_wake;   /* "app-wake" */
static PyObject *s_emit;       /* "emit" */
static PyObject *s_delivery;   /* "delivery" */
static PyObject *s_empty;      /* "" */
static PyObject *str_seq;      /* "_seq" */
static PyObject *str_alive;    /* "_alive" */
static PyObject *str_time;     /* "time" */
static PyObject *str_cancel;   /* "cancel" */
static PyObject *str_app_wakeups;   /* "app_wakeups" */
static PyObject *kw_time;      /* "time" (keyword matching) */
static PyObject *kw_action;    /* "action" */
static PyObject *kw_tag;       /* "tag" */
static PyObject *kw_payload;   /* "payload" */
static PyObject *kw_items;     /* "items" */
static PyObject *portable_restore;  /* repro.engine.events._restore_portable_event */

/* Node fast-path state: the dispatch inlines the hot handler bodies of
 * ``repro.node.node.SimulatedNode`` (application stepping, request
 * interpretation, message accept, data-fragment delivery), so it needs
 * the request classes, the activity singletons, and a bundle of interned
 * attribute names.  Everything that is rare, stateful beyond the node
 * (transport, acks, timers), or foreign falls back to the exact python
 * handler, which does its own accounting. */
static PyObject *cls_compute;       /* repro.node.requests.Compute */
static PyObject *cls_compute_time;  /* repro.node.requests.ComputeTime */
static PyObject *cls_send;          /* repro.node.requests.Send */
static PyObject *cls_recv;          /* repro.node.requests.Recv */
static PyObject *cls_sleep;         /* repro.node.requests.Sleep */
static PyObject *cls_process_exit;  /* repro.engine.process.ProcessExit */
static PyObject *s_busy;            /* repro.node.hostmodel.BUSY (same object) */
static PyObject *s_idle;            /* repro.node.hostmodel.IDLE (same object) */
static PyObject *s_ack;             /* "ack" */
static long long any_source_val;    /* repro.node.requests.ANY_SOURCE */
static long long any_tag_val;       /* repro.node.requests.ANY_TAG */

static PyObject *str_queue;         /* "queue" */
static PyObject *str_stats;         /* "stats" */
static PyObject *str_process;       /* "process" */
static PyObject *str_step;          /* "step" */
static PyObject *str_app_log;       /* "app_log" */
static PyObject *str_transport;     /* "transport" */
static PyObject *str_nic;           /* "nic" */
static PyObject *str_build_frames;  /* "build_frames" */
static PyObject *str_receive_fragment;  /* "receive_fragment" */
static PyObject *str_match;         /* "match" */
static PyObject *str_emit_hook;     /* "emit_hook" */
static PyObject *str_activity_hook; /* "activity_hook" */
static PyObject *str_activity;      /* "activity" */
static PyObject *str_compute_memo;  /* "_compute_memo" */
static PyObject *str_send_cost_memo; /* "_send_cost_memo" */
static PyObject *str_recv_cost_memo; /* "_recv_cost_memo" */
static PyObject *str_cpu;           /* "cpu" */
static PyObject *str_compute_time;  /* "compute_time" */
static PyObject *str_costs;         /* "costs" */
static PyObject *str_send_cost;     /* "send_cost" */
static PyObject *str_recv_cost;     /* "recv_cost" */
static PyObject *str_advance_app;   /* "_advance_app" */
static PyObject *str_interpret;     /* "_interpret" */
static PyObject *str_do_send;       /* "_do_send" */
static PyObject *str_on_fragment;   /* "_on_fragment" */
static PyObject *str_handle_timer;  /* "_handle_timer" */
static PyObject *str_blocked_recv;  /* "_blocked_recv" */
static PyObject *str_blocked_since; /* "_blocked_since" */
static PyObject *str_finished;      /* "finished" */
static PyObject *str_app_finish_time;  /* "app_finish_time" */
static PyObject *str_app_result;    /* "app_result" */
static PyObject *str_result;        /* "result" */
static PyObject *str_matches;       /* "matches" */
static PyObject *str_ops;           /* "ops" */
static PyObject *str_duration;      /* "duration" */
static PyObject *str_dst;           /* "dst" */
static PyObject *str_nbytes;        /* "nbytes" */
static PyObject *str_src;           /* "src" */
static PyObject *str_send_time;     /* "send_time" */
static PyObject *str_kind;          /* "kind" */
static PyObject *str_arrived_at;    /* "arrived_at" */
static PyObject *str_ideal_arrival; /* "ideal_arrival" */
static PyObject *str_deliveries;    /* "deliveries" */
static PyObject *str_messages_sent; /* "messages_sent" */
static PyObject *str_messages_received;  /* "messages_received" */
static PyObject *str_straggler_messages; /* "straggler_messages" */
static PyObject *str_straggler_delay;    /* "straggler_delay" */
static PyObject *str_blocked_time;  /* "blocked_time" */

/* Phase-B inlining: the NIC transmit/receive fast paths construct Packet
 * and Message objects directly and step the application generator without
 * going through ``Process.step``.  The real classes are resolved at module
 * init so every object the C paths build is indistinguishable from a
 * python-built one; the ``repro.network.packet`` module itself is kept so
 * the rebindable ``_packet_ids`` counter (checkpoint restore replaces it)
 * is re-fetched on every construction. */
static PyObject *cls_packet;        /* repro.network.packet.Packet */
static PyObject *cls_message;       /* repro.node.nic.Message */
static PyObject *cls_reassembly;    /* repro.node.nic._Reassembly */
static PyObject *cls_process_error; /* repro.engine.process.ProcessError */
static PyObject *cls_deque;         /* collections.deque */
static PyObject *mod_packet;        /* repro.network.packet */
static PyObject *empty_tuple;       /* () — tp_new fast construction */
static PyObject *s_data;            /* "data" */
static PyObject *str_packet_ids;    /* "_packet_ids" */
static PyObject *str_started;       /* "_started" */
static PyObject *str_generator;     /* "_generator" */
static PyObject *str_send;          /* "send" */
static PyObject *str_name;          /* "name" */
static PyObject *str_value;         /* "value" */
static PyObject *str_node_id;       /* "node_id" */
static PyObject *str_tx_free_at;    /* "_tx_free_at" */
static PyObject *str_frame_plans;   /* "_frame_plans" */
static PyObject *str_wire_ns;       /* "_wire_ns" */
static PyObject *str_message_ids;   /* "_message_ids" */
static PyObject *str_mailbox;       /* "_mailbox" */
static PyObject *str_mailbox_seq;   /* "_mailbox_seq" */
static PyObject *str_append;        /* "append" */
static PyObject *str_popleft;       /* "popleft" */
static PyObject *str_size_bytes;    /* "size_bytes" */
static PyObject *str_fragment;      /* "fragment" */
static PyObject *str_last_fragment; /* "last_fragment" */
static PyObject *str_message_id;    /* "message_id" */
static PyObject *str_due_time;      /* "due_time" */
static PyObject *str_deliver_time;  /* "deliver_time" */
static PyObject *str_straggler;     /* "straggler" */
static PyObject *str_retransmit;    /* "retransmit" */
static PyObject *str_packet_id;     /* "packet_id" */
static PyObject *str_sent_at;       /* "sent_at" */
static PyObject *str_fragments;     /* "fragments" */
static PyObject *str_frames_sent;   /* "frames_sent" */
static PyObject *str_frames_received;   /* "frames_received" */
static PyObject *str_bytes_sent;    /* "bytes_sent" */
static PyObject *str_bytes_received;    /* "bytes_received" */
static PyObject *str_reassembly;    /* "_reassembly" */
static PyObject *str_message;       /* "message" */
static PyObject *str_received;      /* "received" */
static PyObject *str_expected;      /* "expected" */
static PyObject *str_max_deliver;   /* "max_deliver" */
static PyObject *str_max_due;       /* "max_due" */

/* ------------------------------------------------------------------ */
/* Event                                                              */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    long long time;
    long long seq;      /* -1 until scheduled */
    char alive;
    PyObject *action;   /* owned; Py_None for marker events */
    PyObject *tag;      /* owned str */
    PyObject *payload;  /* owned */
} EventObject;

static PyTypeObject Event_Type;

#define Event_CheckExact(op) (Py_TYPE(op) == &Event_Type)

static PyObject *
event_alloc_raw(long long time, PyObject *action, PyObject *tag,
                PyObject *payload, long long seq, char alive)
{
    EventObject *self = PyObject_GC_New(EventObject, &Event_Type);
    if (self == NULL)
        return NULL;
    self->time = time;
    self->seq = seq;
    self->alive = alive;
    Py_INCREF(action);
    self->action = action;
    Py_INCREF(tag);
    self->tag = tag;
    Py_INCREF(payload);
    self->payload = payload;
    PyObject_GC_Track((PyObject *)self);
    return (PyObject *)self;
}

static PyObject *
event_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"time", "action", "tag", "payload", NULL};
    PyObject *time_obj;
    PyObject *action = Py_None;
    PyObject *tag = s_empty;
    PyObject *payload = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|OUO:Event", kwlist,
                                     &time_obj, &action, &tag, &payload))
        return NULL;
    long long time = PyLong_AsLongLong(time_obj);
    if (time == -1 && PyErr_Occurred())
        return NULL;
    if (time < 0) {
        PyErr_Format(PyExc_ValueError,
                     "event time must be non-negative, got %lld", time);
        return NULL;
    }
    /* Mirror the python constructor: tags come from a handful of
     * literals; interning makes hot tag dispatch a pointer compare. */
    Py_INCREF(tag);
    PyUnicode_InternInPlace(&tag);
    PyObject *self = event_alloc_raw(time, action, tag, payload, -1, 1);
    Py_DECREF(tag);
    return self;
}

static int
event_traverse(EventObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->action);
    Py_VISIT(self->payload);
    Py_VISIT(self->tag);
    return 0;
}

static int
event_clear(EventObject *self)
{
    Py_CLEAR(self->action);
    Py_CLEAR(self->payload);
    Py_CLEAR(self->tag);
    return 0;
}

static void
event_dealloc(EventObject *self)
{
    PyObject_GC_UnTrack(self);
    event_clear(self);
    PyObject_GC_Del(self);
}

static PyObject *
event_get_time(EventObject *self, void *closure)
{
    return PyLong_FromLongLong(self->time);
}

static int
event_set_time(EventObject *self, PyObject *value, void *closure)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete time");
        return -1;
    }
    long long time = PyLong_AsLongLong(value);
    if (time == -1 && PyErr_Occurred())
        return -1;
    self->time = time;
    return 0;
}

static PyObject *
event_get_seq(EventObject *self, void *closure)
{
    return PyLong_FromLongLong(self->seq);
}

static int
event_set_seq(EventObject *self, PyObject *value, void *closure)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _seq");
        return -1;
    }
    long long seq = PyLong_AsLongLong(value);
    if (seq == -1 && PyErr_Occurred())
        return -1;
    self->seq = seq;
    return 0;
}

static PyObject *
event_get_alive_flag(EventObject *self, void *closure)
{
    return PyBool_FromLong(self->alive);
}

static int
event_set_alive_flag(EventObject *self, PyObject *value, void *closure)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _alive");
        return -1;
    }
    int truth = PyObject_IsTrue(value);
    if (truth < 0)
        return -1;
    self->alive = (char)truth;
    return 0;
}

static PyObject *
event_get_alive(EventObject *self, void *closure)
{
    return PyBool_FromLong(self->alive);
}

static PyObject *
event_cancel(EventObject *self, PyObject *noargs)
{
    self->alive = 0;
    Py_RETURN_NONE;
}

static PyObject *
event_fire(EventObject *self, PyObject *noargs)
{
    self->alive = 0;
    if (self->action != Py_None) {
        PyObject *result = PyObject_CallNoArgs(self->action);
        if (result == NULL)
            return NULL;
        Py_DECREF(result);
    }
    Py_RETURN_NONE;
}

static PyObject *
event_repr(EventObject *self)
{
    return PyUnicode_FromFormat("Event(t=%lld, tag=%R, %s)",
                                self->time, self->tag,
                                self->alive ? "alive" : "dead");
}

static PyObject *
event_reduce(EventObject *self, PyObject *noargs)
{
    /* Pickle into the pure-python Event: snapshots written by the native
     * backend must load in environments without the compiled module (and
     * restore onto either backend). */
    return Py_BuildValue("O(LOOOLi)", portable_restore,
                         self->time, self->action, self->tag, self->payload,
                         self->seq, (int)self->alive);
}

static PyGetSetDef event_getset[] = {
    {"time", (getter)event_get_time, (setter)event_set_time,
     "simulated time at which the event fires", NULL},
    {"_seq", (getter)event_get_seq, (setter)event_set_seq,
     "queue insertion order (-1 until scheduled)", NULL},
    {"_alive", (getter)event_get_alive_flag, (setter)event_set_alive_flag,
     "live flag honoured by the queue's lazy deletion", NULL},
    {"alive", (getter)event_get_alive, NULL,
     "whether the event is still scheduled (not cancelled, not fired)", NULL},
    {NULL},
};

static PyMemberDef event_members[] = {
    {"action", T_OBJECT, offsetof(EventObject, action), 0,
     "zero-argument callable run when the event fires (None for markers)"},
    {"tag", T_OBJECT, offsetof(EventObject, tag), 0,
     "free-form label used by owners to classify events"},
    {"payload", T_OBJECT, offsetof(EventObject, payload), 0,
     "arbitrary data travelling with the event"},
    {NULL},
};

static PyMethodDef event_methods[] = {
    {"cancel", (PyCFunction)event_cancel, METH_NOARGS,
     "Mark the event dead; the queue will skip it when it surfaces."},
    {"fire", (PyCFunction)event_fire, METH_NOARGS,
     "Run the event's action, if any, and mark it consumed."},
    {"__reduce__", (PyCFunction)event_reduce, METH_NOARGS, NULL},
    {NULL},
};

static PyTypeObject Event_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.engine._native.Event",
    .tp_basicsize = sizeof(EventObject),
    .tp_dealloc = (destructor)event_dealloc,
    .tp_repr = (reprfunc)event_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A scheduled occurrence (native twin of repro.engine.events.Event).",
    .tp_traverse = (traverseproc)event_traverse,
    .tp_clear = (inquiry)event_clear,
    .tp_methods = event_methods,
    .tp_members = event_members,
    .tp_getset = event_getset,
    .tp_new = event_new,
};

/* ------------------------------------------------------------------ */
/* EventQueue                                                         */
/* ------------------------------------------------------------------ */

typedef struct {
    long long time;
    long long seq;
    PyObject *event;  /* owned */
} qentry;

/* Resolved handler surface of the node this queue dispatches for.  Bound
 * lazily on the first ``drain`` / ``handle_next`` call and kept until the
 * queue is cleared/restored (checkpoint restore rebinds ``node.stats`` /
 * ``node.process`` / NIC internals, and always goes through
 * ``restore_events``, which drops the binding).  All fields are owned;
 * ``node == NULL`` means unbound.  The struct is iterated as a flat
 * array of object pointers for traverse/clear, so it must contain
 * nothing but ``PyObject *`` members. */
typedef struct {
    PyObject *node;
    PyObject *stats;
    PyObject *step;             /* bound process.step */
    PyObject *app_log;          /* list, or None when not checkpointing */
    PyObject *transport;        /* None on the fast configurations */
    PyObject *build_frames;     /* bound nic.build_frames */
    PyObject *receive_fragment; /* bound nic.receive_fragment */
    PyObject *match;            /* bound nic.match */
    PyObject *compute_memo;     /* node._compute_memo (dict) */
    PyObject *send_memo;        /* node._send_cost_memo (dict) */
    PyObject *recv_memo;        /* node._recv_cost_memo (dict) */
    PyObject *compute_time;     /* bound cpu.compute_time */
    PyObject *send_cost;        /* bound costs.send_cost */
    PyObject *recv_cost;        /* bound costs.recv_cost */
    PyObject *interpret;        /* bound node._interpret (fallback) */
    PyObject *do_send;          /* bound node._do_send (fallback) */
    PyObject *on_fragment;      /* bound node._on_fragment (fallback) */
    PyObject *process;          /* node.process (Process) */
    PyObject *gen_send;         /* bound process._generator.send */
    PyObject *nic;              /* node.nic (NicModel) */
    PyObject *nic_stats;        /* nic.stats */
    PyObject *frame_plans;      /* nic._frame_plans (dict) */
    PyObject *wire_ns;          /* nic._wire_ns (dict) */
    PyObject *mailbox;          /* nic._mailbox (dict) */
    PyObject *reassembly;       /* nic._reassembly (dict) */
} NodeCtx;

#define NODECTX_SLOTS (sizeof(NodeCtx) / sizeof(PyObject *))

typedef struct {
    PyObject_HEAD
    qentry *heap;
    Py_ssize_t n;        /* entries in the heap, dead included */
    Py_ssize_t cap;
    long long next_seq;
    Py_ssize_t live;
    Py_ssize_t dead;
    int in_drain;        /* drain re-entrancy depth */
    int ctx_drop_pending;  /* clear/restore happened mid-drain */
    NodeCtx ctx;
} QueueObject;

static void
ctx_drop(QueueObject *q)
{
    /* A handler can clear/restore the queue mid-drain; the drain's bound
     * context must stay alive until it unwinds (exactly like the python
     * drain's prefetched locals), so the release is deferred. */
    if (q->in_drain) {
        q->ctx_drop_pending = 1;
        return;
    }
    PyObject **slots = (PyObject **)&q->ctx;
    for (size_t i = 0; i < NODECTX_SLOTS; i++)
        Py_CLEAR(slots[i]);
}

static void
ctx_release(QueueObject *q)
{
    PyObject **slots = (PyObject **)&q->ctx;
    for (size_t i = 0; i < NODECTX_SLOTS; i++)
        Py_CLEAR(slots[i]);
}

static PyTypeObject Queue_Type;

static inline int
entry_lt(const qentry *a, const qentry *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

static int
queue_reserve(QueueObject *q, Py_ssize_t want)
{
    if (want <= q->cap)
        return 0;
    Py_ssize_t cap = q->cap ? q->cap : 64;
    while (cap < want) {
        if (cap > PY_SSIZE_T_MAX / 2) {
            PyErr_NoMemory();
            return -1;
        }
        cap *= 2;
    }
    qentry *heap = PyMem_Realloc(q->heap, (size_t)cap * sizeof(qentry));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    q->heap = heap;
    q->cap = cap;
    return 0;
}

/* Bubble the entry at index ``pos`` toward the root. */
static void
sift_up(qentry *heap, Py_ssize_t pos)
{
    qentry item = heap[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!entry_lt(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

/* Restore the heap property for the root given ``n`` entries. */
static void
sift_down(qentry *heap, Py_ssize_t pos, Py_ssize_t n)
{
    qentry item = heap[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && entry_lt(&heap[child + 1], &heap[child]))
            child += 1;
        if (!entry_lt(&heap[child], &item))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

static void
heapify(qentry *heap, Py_ssize_t n)
{
    for (Py_ssize_t i = n / 2 - 1; i >= 0; i--)
        sift_down(heap, i, n);
}

/* Remove the root entry; the caller owns the event reference held by the
 * returned entry. */
static qentry
heap_pop_root(QueueObject *q)
{
    qentry root = q->heap[0];
    q->n -= 1;
    if (q->n > 0) {
        q->heap[0] = q->heap[q->n];
        sift_down(q->heap, 0, q->n);
    }
    return root;
}

/* Liveness of an arbitrary queued object.  Native events answer from the
 * struct; foreign (pure-python) events — which can only enter through
 * ``push``/``restore_events`` — answer through their ``_alive``
 * attribute.  Returns 1/0, or -1 with an exception set. */
static int
entry_alive(PyObject *event)
{
    if (Event_CheckExact(event))
        return ((EventObject *)event)->alive;
    PyObject *flag = PyObject_GetAttr(event, str_alive);
    if (flag == NULL)
        return -1;
    int truth = PyObject_IsTrue(flag);
    Py_DECREF(flag);
    return truth;
}

/* Drop dead entries sitting at the heap root. Returns 0, or -1 on error. */
static int
drop_dead(QueueObject *q)
{
    while (q->n > 0) {
        int alive = entry_alive(q->heap[0].event);
        if (alive < 0)
            return -1;
        if (alive)
            return 0;
        qentry entry = heap_pop_root(q);
        Py_DECREF(entry.event);
        q->dead -= 1;
    }
    return 0;
}

static int
queue_compact(QueueObject *q)
{
    Py_ssize_t kept = 0;
    for (Py_ssize_t i = 0; i < q->n; i++) {
        int alive = entry_alive(q->heap[i].event);
        if (alive < 0) {
            /* Keep the remaining tail so no reference leaks; the heap
             * property is restored before reporting the error. */
            for (Py_ssize_t j = i; j < q->n; j++)
                q->heap[kept++] = q->heap[j];
            q->n = kept;
            heapify(q->heap, q->n);
            return -1;
        }
        if (alive)
            q->heap[kept++] = q->heap[i];
        else
            Py_DECREF(q->heap[i].event);
    }
    q->n = kept;
    heapify(q->heap, q->n);
    q->dead = 0;
    return 0;
}

static PyObject *
queue_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    if ((args && PyTuple_GET_SIZE(args)) || (kwargs && PyDict_GET_SIZE(kwargs))) {
        PyErr_SetString(PyExc_TypeError, "EventQueue() takes no arguments");
        return NULL;
    }
    QueueObject *self = PyObject_GC_New(QueueObject, &Queue_Type);
    if (self == NULL)
        return NULL;
    self->heap = NULL;
    self->n = 0;
    self->cap = 0;
    self->next_seq = 0;
    self->live = 0;
    self->dead = 0;
    self->in_drain = 0;
    self->ctx_drop_pending = 0;
    memset(&self->ctx, 0, sizeof(NodeCtx));
    PyObject_GC_Track((PyObject *)self);
    return (PyObject *)self;
}

static int
queue_traverse(QueueObject *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->n; i++)
        Py_VISIT(self->heap[i].event);
    PyObject **slots = (PyObject **)&self->ctx;
    for (size_t i = 0; i < NODECTX_SLOTS; i++)
        Py_VISIT(slots[i]);
    return 0;
}

static int
queue_clear_gc(QueueObject *self)
{
    Py_ssize_t n = self->n;
    self->n = 0;
    self->live = 0;
    self->dead = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        Py_CLEAR(self->heap[i].event);
    ctx_release(self);
    return 0;
}

static void
queue_dealloc(QueueObject *self)
{
    PyObject_GC_UnTrack(self);
    queue_clear_gc(self);
    PyMem_Free(self->heap);
    PyObject_GC_Del(self);
}

static Py_ssize_t
queue_len(QueueObject *self)
{
    return self->live;
}

/* Shared guts of push()/push_many(): validate, stamp the sequence number,
 * and append + sift.  ``sift`` may be 0 for bulk loads that heapify once
 * at the end. */
static int
queue_push_one(QueueObject *q, PyObject *event, int sift)
{
    long long time;
    if (Event_CheckExact(event)) {
        EventObject *native = (EventObject *)event;
        if (!native->alive) {
            PyErr_SetString(PyExc_ValueError,
                            "cannot schedule a cancelled event");
            return -1;
        }
        if (native->seq >= 0) {
            PyErr_SetString(PyExc_ValueError, "event is already scheduled");
            return -1;
        }
        native->seq = q->next_seq;
        time = native->time;
    }
    else {
        int alive = entry_alive(event);
        if (alive < 0)
            return -1;
        if (!alive) {
            PyErr_SetString(PyExc_ValueError,
                            "cannot schedule a cancelled event");
            return -1;
        }
        PyObject *seq_obj = PyObject_GetAttr(event, str_seq);
        if (seq_obj == NULL)
            return -1;
        long long seq = PyLong_AsLongLong(seq_obj);
        Py_DECREF(seq_obj);
        if (seq == -1 && PyErr_Occurred())
            return -1;
        if (seq >= 0) {
            PyErr_SetString(PyExc_ValueError, "event is already scheduled");
            return -1;
        }
        PyObject *time_obj = PyObject_GetAttr(event, str_time);
        if (time_obj == NULL)
            return -1;
        time = PyLong_AsLongLong(time_obj);
        Py_DECREF(time_obj);
        if (time == -1 && PyErr_Occurred())
            return -1;
        seq_obj = PyLong_FromLongLong(q->next_seq);
        if (seq_obj == NULL)
            return -1;
        int rc = PyObject_SetAttr(event, str_seq, seq_obj);
        Py_DECREF(seq_obj);
        if (rc < 0)
            return -1;
    }
    if (queue_reserve(q, q->n + 1) < 0)
        return -1;
    qentry *slot = &q->heap[q->n];
    slot->time = time;
    slot->seq = q->next_seq;
    Py_INCREF(event);
    slot->event = event;
    q->n += 1;
    q->next_seq += 1;
    q->live += 1;
    if (sift)
        sift_up(q->heap, q->n - 1);
    return 0;
}

static PyObject *
queue_push(QueueObject *self, PyObject *event)
{
    if (queue_push_one(self, event, 1) < 0)
        return NULL;
    Py_INCREF(event);
    return event;
}

/* Match one keyword name against an interned candidate.  Caller keywords
 * are literals, which CPython interns, so the pointer compare almost
 * always decides; the value compare is the correctness net. */
static inline int
kw_is(PyObject *name, PyObject *candidate)
{
    if (name == candidate)
        return 1;
    return PyUnicode_Compare(name, candidate) == 0 && !PyErr_Occurred();
}

/* Hand-rolled METH_FASTCALL|METH_KEYWORDS parsing for
 * schedule(time, action=None, tag="", payload=None) — the hottest
 * allocation site of a run; the argument-clinic private helpers are not
 * stable across CPython minors. */
static int
parse_schedule_args(PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
                    PyObject **time_obj, PyObject **action, PyObject **tag,
                    PyObject **payload)
{
    if (nargs > 4) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule() takes at most 4 positional arguments");
        return -1;
    }
    *time_obj = NULL;
    *action = Py_None;
    *tag = s_empty;
    *payload = Py_None;
    if (nargs >= 1)
        *time_obj = args[0];
    if (nargs >= 2)
        *action = args[1];
    if (nargs >= 3)
        *tag = args[2];
    if (nargs >= 4)
        *payload = args[3];
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *value = args[nargs + i];
            if (kw_is(name, kw_tag))
                *tag = value;
            else if (kw_is(name, kw_payload))
                *payload = value;
            else if (kw_is(name, kw_action))
                *action = value;
            else if (kw_is(name, kw_time))
                *time_obj = value;
            else {
                if (!PyErr_Occurred())
                    PyErr_Format(PyExc_TypeError,
                                 "schedule() got an unexpected keyword "
                                 "argument %R", name);
                return -1;
            }
        }
    }
    if (*time_obj == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule() missing required argument: 'time'");
        return -1;
    }
    if (!PyUnicode_Check(*tag)) {
        PyErr_SetString(PyExc_TypeError, "schedule() argument 'tag' must be str");
        return -1;
    }
    return 0;
}

static PyObject *
queue_schedule(QueueObject *self, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames)
{
    PyObject *time_obj;
    PyObject *action;
    PyObject *tag;
    PyObject *payload;
    if (parse_schedule_args(args, nargs, kwnames, &time_obj, &action, &tag,
                            &payload) < 0)
        return NULL;
    long long time = PyLong_AsLongLong(time_obj);
    if (time == -1 && PyErr_Occurred())
        return NULL;
    if (time < 0) {
        PyErr_Format(PyExc_ValueError,
                     "event time must be non-negative, got %lld", time);
        return NULL;
    }
    /* No interning here — every caller passes a literal, which CPython
     * interns at compile time (same reasoning as the python fast path). */
    PyObject *event = event_alloc_raw(time, action, tag, payload,
                                      self->next_seq, 1);
    if (event == NULL)
        return NULL;
    if (queue_reserve(self, self->n + 1) < 0) {
        Py_DECREF(event);
        return NULL;
    }
    qentry *slot = &self->heap[self->n];
    slot->time = time;
    slot->seq = self->next_seq;
    Py_INCREF(event);
    slot->event = event;
    self->n += 1;
    self->next_seq += 1;
    self->live += 1;
    sift_up(self->heap, self->n - 1);
    return event;
}

static PyObject *
queue_push_many(QueueObject *self, PyObject *events)
{
    PyObject *batch = PySequence_Fast(events, "push_many expects an iterable");
    if (batch == NULL)
        return NULL;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(batch);
    /* Small batches relative to the heap sift individually; large ones
     * append and re-heapify in one O(n) pass (same rule, and therefore
     * the same counters, as the python reference). */
    int bulk = count * 8 >= self->n;
    PyObject **items = PySequence_Fast_ITEMS(batch);
    for (Py_ssize_t i = 0; i < count; i++) {
        if (queue_push_one(self, items[i], !bulk)) {
            heapify(self->heap, self->n);
            Py_DECREF(batch);
            return NULL;
        }
    }
    if (bulk)
        heapify(self->heap, self->n);
    Py_DECREF(batch);
    Py_RETURN_NONE;
}

static PyObject *
queue_schedule_many(QueueObject *self, PyObject *const *args, Py_ssize_t nargs,
                    PyObject *kwnames)
{
    PyObject *items = NULL;
    PyObject *tag = s_empty;
    if (nargs > 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_many() takes at most 2 positional arguments");
        return NULL;
    }
    if (nargs >= 1)
        items = args[0];
    if (nargs >= 2)
        tag = args[1];
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *value = args[nargs + i];
            if (kw_is(name, kw_tag))
                tag = value;
            else if (kw_is(name, kw_items))
                items = value;
            else {
                if (!PyErr_Occurred())
                    PyErr_Format(PyExc_TypeError,
                                 "schedule_many() got an unexpected keyword "
                                 "argument %R", name);
                return NULL;
            }
        }
    }
    if (items == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_many() missing required argument: 'items'");
        return NULL;
    }
    if (!PyUnicode_Check(tag)) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_many() argument 'tag' must be str");
        return NULL;
    }
    PyObject *batch = PySequence_Fast(items, "schedule_many expects an iterable");
    if (batch == NULL)
        return NULL;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(batch);
    int bulk = count * 8 >= self->n;
    if (queue_reserve(self, self->n + count) < 0) {
        Py_DECREF(batch);
        return NULL;
    }
    PyObject **pairs = PySequence_Fast_ITEMS(batch);
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *pair = pairs[i];
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "schedule_many items must be (time, payload) pairs");
            goto error;
        }
        long long time = PyLong_AsLongLong(PyTuple_GET_ITEM(pair, 0));
        if (time == -1 && PyErr_Occurred())
            goto error;
        if (time < 0) {
            PyErr_Format(PyExc_ValueError,
                         "event time must be non-negative, got %lld", time);
            goto error;
        }
        PyObject *event = event_alloc_raw(time, Py_None, tag,
                                          PyTuple_GET_ITEM(pair, 1),
                                          self->next_seq, 1);
        if (event == NULL)
            goto error;
        qentry *slot = &self->heap[self->n];
        slot->time = time;
        slot->seq = self->next_seq;
        slot->event = event;  /* transfer the fresh reference */
        self->n += 1;
        self->next_seq += 1;
        self->live += 1;
        if (!bulk)
            sift_up(self->heap, self->n - 1);
    }
    if (bulk)
        heapify(self->heap, self->n);
    Py_DECREF(batch);
    Py_RETURN_NONE;

error:
    heapify(self->heap, self->n);
    Py_DECREF(batch);
    return NULL;
}

static PyObject *
queue_cancel(QueueObject *self, PyObject *event)
{
    int alive = entry_alive(event);
    if (alive < 0)
        return NULL;
    if (alive) {
        if (Event_CheckExact(event))
            ((EventObject *)event)->alive = 0;
        else {
            PyObject *result = PyObject_CallMethodNoArgs(event, str_cancel);
            if (result == NULL)
                return NULL;
            Py_DECREF(result);
        }
        self->live -= 1;
        self->dead += 1;
        if (self->dead >= COMPACT_MIN_DEAD && self->dead * 2 > self->n) {
            if (queue_compact(self) < 0)
                return NULL;
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
queue_peek(QueueObject *self, PyObject *noargs)
{
    if (drop_dead(self) < 0)
        return NULL;
    if (self->n == 0)
        Py_RETURN_NONE;
    PyObject *event = self->heap[0].event;
    Py_INCREF(event);
    return event;
}

static PyObject *
queue_peek_time(QueueObject *self, PyObject *noargs)
{
    if (drop_dead(self) < 0)
        return NULL;
    if (self->n == 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->heap[0].time);
}

static PyObject *
queue_pop(QueueObject *self, PyObject *noargs)
{
    while (self->n > 0) {
        int alive = entry_alive(self->heap[0].event);
        if (alive < 0)
            return NULL;
        qentry entry = heap_pop_root(self);
        if (alive) {
            self->live -= 1;
            return entry.event;  /* transfer ownership */
        }
        Py_DECREF(entry.event);
        self->dead -= 1;
    }
    PyErr_SetString(PyExc_IndexError, "pop from empty EventQueue");
    return NULL;
}

static PyObject *
queue_clear(QueueObject *self, PyObject *noargs)
{
    Py_ssize_t n = self->n;
    self->n = 0;
    self->live = 0;
    self->dead = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        Py_CLEAR(self->heap[i].event);
    /* Clearing (and restoring, which clears first) marks a lifecycle
     * boundary: checkpoint restore may rebind node.stats / node.process /
     * NIC internals, so the drained-node binding must be re-resolved. */
    ctx_drop(self);
    Py_RETURN_NONE;
}

static PyObject *
queue_get_dead_entries(QueueObject *self, void *closure)
{
    return PyLong_FromSsize_t(self->dead);
}

static PyObject *
queue_get_next_seq(QueueObject *self, void *closure)
{
    return PyLong_FromLongLong(self->next_seq);
}

static PyObject *
queue_live_events(QueueObject *self, PyObject *noargs)
{
    PyObject *events = PyList_New(0);
    if (events == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->n; i++) {
        PyObject *event = self->heap[i].event;
        int alive = entry_alive(event);
        if (alive < 0)
            goto error;
        if (alive && PyList_Append(events, event) < 0)
            goto error;
    }
    return events;
error:
    Py_DECREF(events);
    return NULL;
}

static PyObject *
queue_restore_events(QueueObject *self, PyObject *args)
{
    PyObject *events;
    PyObject *next_seq_obj;
    if (!PyArg_ParseTuple(args, "OO:restore_events", &events, &next_seq_obj))
        return NULL;
    long long next_seq = PyLong_AsLongLong(next_seq_obj);
    if (next_seq == -1 && PyErr_Occurred())
        return NULL;
    PyObject *batch = PySequence_Fast(events, "restore_events expects a sequence");
    if (batch == NULL)
        return NULL;
    PyObject *cleared = queue_clear(self, NULL);
    Py_XDECREF(cleared);
    Py_ssize_t count = PySequence_Fast_GET_SIZE(batch);
    if (queue_reserve(self, count) < 0) {
        Py_DECREF(batch);
        return NULL;
    }
    PyObject **items = PySequence_Fast_ITEMS(batch);
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *event = items[i];
        long long time, seq;
        if (Event_CheckExact(event)) {
            time = ((EventObject *)event)->time;
            seq = ((EventObject *)event)->seq;
        }
        else {
            PyObject *obj = PyObject_GetAttr(event, str_time);
            if (obj == NULL)
                goto error;
            time = PyLong_AsLongLong(obj);
            Py_DECREF(obj);
            if (time == -1 && PyErr_Occurred())
                goto error;
            obj = PyObject_GetAttr(event, str_seq);
            if (obj == NULL)
                goto error;
            seq = PyLong_AsLongLong(obj);
            Py_DECREF(obj);
            if (seq == -1 && PyErr_Occurred())
                goto error;
        }
        qentry *slot = &self->heap[self->n];
        slot->time = time;
        slot->seq = seq;
        Py_INCREF(event);
        slot->event = event;
        self->n += 1;
    }
    heapify(self->heap, self->n);
    self->live = self->n;
    self->dead = 0;
    self->next_seq = next_seq;
    Py_DECREF(batch);
    Py_RETURN_NONE;
error:
    heapify(self->heap, self->n);
    self->live = self->n;
    self->dead = 0;
    Py_DECREF(batch);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Node-event dispatch: the fused window drain and its one-event form  */
/* ------------------------------------------------------------------ */

/* Per-call counter accumulator: the python reference bumps the node's
 * stats before each handler call, but nothing reads them mid-call, so
 * one deferred add per counter at exit (error paths included) is
 * observationally identical.  Python-fallback handlers do their own
 * accounting, so C increments happen only on fully inlined paths. */
typedef struct {
    long long wakeups;
    long long deliveries;
    long long msgs_sent;
    long long msgs_recv;
    long long straggler_msgs;
    long long straggler_delay;
    long long blocked_time;
    /* NicStats counters, touched only by the inlined NIC fast paths
     * (python-fallback NIC calls account these themselves). */
    long long nic_frames_sent;
    long long nic_bytes_sent;
    long long nic_msgs_sent;
    long long nic_frames_recv;
    long long nic_bytes_recv;
    long long nic_msgs_recv;
} DrainAcc;

static void
acc_flush(PyObject *stats, PyObject *nic_stats, DrainAcc *acc)
{
    struct { PyObject *obj; PyObject *name; long long add; } rows[] = {
        {stats, NULL, acc->wakeups},
        {stats, NULL, acc->deliveries},
        {stats, NULL, acc->msgs_sent},
        {stats, NULL, acc->msgs_recv},
        {stats, NULL, acc->straggler_msgs},
        {stats, NULL, acc->straggler_delay},
        {stats, NULL, acc->blocked_time},
        {nic_stats, NULL, acc->nic_frames_sent},
        {nic_stats, NULL, acc->nic_bytes_sent},
        {nic_stats, NULL, acc->nic_msgs_sent},
        {nic_stats, NULL, acc->nic_frames_recv},
        {nic_stats, NULL, acc->nic_bytes_recv},
        {nic_stats, NULL, acc->nic_msgs_recv},
    };
    rows[0].name = str_app_wakeups;
    rows[1].name = str_deliveries;
    rows[2].name = str_messages_sent;
    rows[3].name = str_messages_received;
    rows[4].name = str_straggler_messages;
    rows[5].name = str_straggler_delay;
    rows[6].name = str_blocked_time;
    rows[7].name = str_frames_sent;
    rows[8].name = str_bytes_sent;
    rows[9].name = str_messages_sent;
    rows[10].name = str_frames_received;
    rows[11].name = str_bytes_received;
    rows[12].name = str_messages_received;
    size_t count = sizeof(rows) / sizeof(rows[0]);
    int any = 0;
    for (size_t i = 0; i < count; i++)
        if (rows[i].add != 0 && rows[i].obj != NULL)
            any = 1;
    if (!any)
        return;
    PyObject *exc = NULL, *val = NULL, *tb = NULL;
    if (PyErr_Occurred())
        PyErr_Fetch(&exc, &val, &tb);
    for (size_t i = 0; i < count; i++) {
        if (rows[i].add == 0 || rows[i].obj == NULL)
            continue;
        PyObject *current = PyObject_GetAttr(rows[i].obj, rows[i].name);
        if (current == NULL)
            break;
        PyObject *add = PyLong_FromLongLong(rows[i].add);
        if (add == NULL) {
            Py_DECREF(current);
            break;
        }
        PyObject *total = PyNumber_Add(current, add);
        Py_DECREF(current);
        Py_DECREF(add);
        if (total == NULL)
            break;
        int rc = PyObject_SetAttr(rows[i].obj, rows[i].name, total);
        Py_DECREF(total);
        if (rc < 0)
            break;
    }
    PyErr_Clear();
    if (exc != NULL || val != NULL || tb != NULL)
        PyErr_Restore(exc, val, tb);
}

/* Internal twin of ``schedule(time, tag=..., payload=...)`` for the
 * inlined handlers: same validation, same counters, same heap layout as
 * the method path. */
static int
schedule_internal(QueueObject *q, long long time, PyObject *tag,
                  PyObject *payload)
{
    if (time < 0) {
        PyErr_Format(PyExc_ValueError,
                     "event time must be non-negative, got %lld", time);
        return -1;
    }
    PyObject *event = event_alloc_raw(time, Py_None, tag, payload,
                                      q->next_seq, 1);
    if (event == NULL)
        return -1;
    if (queue_reserve(q, q->n + 1) < 0) {
        Py_DECREF(event);
        return -1;
    }
    qentry *slot = &q->heap[q->n];
    slot->time = time;
    slot->seq = q->next_seq;
    slot->event = event;  /* transfer the fresh reference */
    q->n += 1;
    q->next_seq += 1;
    q->live += 1;
    sift_up(q->heap, q->n - 1);
    return 0;
}

static int
attr_as_longlong(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    long long result = PyLong_AsLongLong(value);
    Py_DECREF(value);
    if (result == -1 && PyErr_Occurred())
        return -1;
    *out = result;
    return 0;
}

/* Inlined ``SimulatedNode._set_activity``: compare, set, notify.  The
 * activity singletons are the hostmodel BUSY/IDLE string objects, so the
 * identity test almost always decides. */
static int
node_set_activity(PyObject *node, PyObject *activity_hook, PyObject *now_obj,
                  PyObject *activity)
{
    PyObject *current = PyObject_GetAttr(node, str_activity);
    if (current == NULL)
        return -1;
    int same = (current == activity);
    if (!same && PyUnicode_Check(current))
        same = PyUnicode_Compare(current, activity) == 0 && !PyErr_Occurred();
    Py_DECREF(current);
    if (PyErr_Occurred())
        return -1;
    if (same)
        return 0;
    if (PyObject_SetAttr(node, str_activity, activity) < 0)
        return -1;
    if (activity_hook != Py_None) {
        PyObject *result = PyObject_CallFunctionObjArgs(activity_hook, node,
                                                        now_obj, activity,
                                                        NULL);
        if (result == NULL)
            return -1;
        Py_DECREF(result);
    }
    return 0;
}

/* Inlined ``SimulatedNode._wake_after``. */
static int
wake_after(QueueObject *q, PyObject *activity_hook, long long now,
           PyObject *now_obj, PyObject *delay_obj, PyObject *activity,
           PyObject *value)
{
    if (node_set_activity(q->ctx.node, activity_hook, now_obj, activity) < 0)
        return -1;
    long long delay = PyLong_AsLongLong(delay_obj);
    if (delay == -1 && PyErr_Occurred())
        return -1;
    if (delay > 0 && now > LLONG_MAX - delay) {
        PyErr_SetString(PyExc_OverflowError,
                        "simulated time beyond 2**63 ns is unsupported");
        return -1;
    }
    return schedule_internal(q, now + delay, s_app_wake, value);
}

/* Inlined ``SimulatedNode._accept``. */
static int
accept_message(QueueObject *q, PyObject *activity_hook, long long now,
               PyObject *now_obj, PyObject *msg, DrainAcc *acc)
{
    NodeCtx *ctx = &q->ctx;
    acc->msgs_recv += 1;
    long long arrived, ideal;
    if (attr_as_longlong(msg, str_arrived_at, &arrived) < 0 ||
        attr_as_longlong(msg, str_ideal_arrival, &ideal) < 0)
        return -1;
    long long delay_error = arrived - ideal;
    if (delay_error > 0) {
        acc->straggler_msgs += 1;
        acc->straggler_delay += delay_error;
    }
    PyObject *nbytes = PyObject_GetAttr(msg, str_nbytes);
    if (nbytes == NULL)
        return -1;
    PyObject *cost = PyDict_GetItemWithError(ctx->recv_memo, nbytes);
    if (cost != NULL)
        Py_INCREF(cost);
    else {
        if (PyErr_Occurred()) {
            Py_DECREF(nbytes);
            return -1;
        }
        cost = PyObject_CallOneArg(ctx->recv_cost, nbytes);
        if (cost == NULL) {
            Py_DECREF(nbytes);
            return -1;
        }
        if (PyDict_SetItem(ctx->recv_memo, nbytes, cost) < 0) {
            Py_DECREF(cost);
            Py_DECREF(nbytes);
            return -1;
        }
    }
    Py_DECREF(nbytes);
    int rc = wake_after(q, activity_hook, now, now_obj, cost, s_busy, msg);
    Py_DECREF(cost);
    return rc;
}

/* Inlined ``Process.step`` for a started, unfinished process (the steady
 * state).  The first step of each process (generator-protocol priming,
 * first-send-must-be-None check) and the finished/misuse path run the
 * python method — both are at most once per process per run.  On success
 * exactly one of *req_out (the next request) or *exit_out (the process
 * returned; ProcessExit.result equivalent) is set, both owned by the
 * caller.  Returns -1 with the exception set otherwise — including the
 * ``ProcessError`` wrap with ``__cause__``/``__context__`` chained the
 * way ``raise ProcessError(...) from exc`` chains them. */
static int
step_inline(NodeCtx *ctx, PyObject *value, PyObject **req_out,
            PyObject **exit_out)
{
    *req_out = NULL;
    *exit_out = NULL;
    PyObject *flag = PyObject_GetAttr(ctx->process, str_finished);
    if (flag == NULL)
        return -1;
    int finished = PyObject_IsTrue(flag);
    Py_DECREF(flag);
    if (finished < 0)
        return -1;
    int started = 1;
    if (!finished) {
        flag = PyObject_GetAttr(ctx->process, str_started);
        if (flag == NULL)
            return -1;
        started = PyObject_IsTrue(flag);
        Py_DECREF(flag);
        if (started < 0)
            return -1;
    }
    if (finished || !started) {
        PyObject *req = PyObject_CallOneArg(ctx->step, value);
        if (req != NULL) {
            *req_out = req;
            return 0;
        }
        if (!PyErr_ExceptionMatches(cls_process_exit))
            return -1;
        PyObject *ptype, *pval, *ptb;
        PyErr_Fetch(&ptype, &pval, &ptb);
        PyErr_NormalizeException(&ptype, &pval, &ptb);
        PyObject *res = pval != NULL ? PyObject_GetAttr(pval, str_result)
                                     : NULL;
        Py_XDECREF(ptype);
        Py_XDECREF(pval);
        Py_XDECREF(ptb);
        if (res == NULL)
            return -1;
        *exit_out = res;
        return 0;
    }
    PyObject *req = PyObject_CallOneArg(ctx->gen_send, value);
    if (req != NULL) {
        *req_out = req;
        return 0;
    }
    if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
        /* Generator returned: finished = True, result = stop.value.  The
         * python twin raises ProcessExit(stop.value) which _advance_app
         * immediately catches; handing the result back directly is the
         * same control flow without materialising the exception. */
        PyObject *ptype, *pval, *ptb;
        PyErr_Fetch(&ptype, &pval, &ptb);
        PyErr_NormalizeException(&ptype, &pval, &ptb);
        PyObject *res;
        if (pval != NULL)
            res = PyObject_GetAttr(pval, str_value);
        else {
            res = Py_None;
            Py_INCREF(res);
        }
        Py_XDECREF(ptype);
        Py_XDECREF(pval);
        Py_XDECREF(ptb);
        if (res == NULL)
            return -1;
        if (PyObject_SetAttr(ctx->process, str_finished, Py_True) < 0 ||
            PyObject_SetAttr(ctx->process, str_result, res) < 0) {
            Py_DECREF(res);
            return -1;
        }
        *exit_out = res;
        return 0;
    }
    if (PyErr_ExceptionMatches(cls_process_exit)) {
        /* The body raised ProcessExit itself; step() re-raises without
         * touching ``finished`` and _advance_app consumes the result. */
        PyObject *ptype, *pval, *ptb;
        PyErr_Fetch(&ptype, &pval, &ptb);
        PyErr_NormalizeException(&ptype, &pval, &ptb);
        PyObject *res = pval != NULL ? PyObject_GetAttr(pval, str_result)
                                     : NULL;
        Py_XDECREF(ptype);
        Py_XDECREF(pval);
        Py_XDECREF(ptb);
        if (res == NULL)
            return -1;
        *exit_out = res;
        return 0;
    }
    /* Any other exception: finished = True; ProcessError(name, exc). */
    {
        PyObject *ptype, *pval, *ptb;
        PyErr_Fetch(&ptype, &pval, &ptb);
        PyErr_NormalizeException(&ptype, &pval, &ptb);
        if (ptb != NULL && pval != NULL)
            PyException_SetTraceback(pval, ptb);
        if (PyObject_SetAttr(ctx->process, str_finished, Py_True) < 0 ||
            pval == NULL) {
            PyErr_Clear();
            PyErr_Restore(ptype, pval, ptb);
            return -1;
        }
        PyObject *name = PyObject_GetAttr(ctx->process, str_name);
        PyObject *wrapped = NULL;
        if (name != NULL) {
            wrapped = PyObject_CallFunctionObjArgs(cls_process_error, name,
                                                   pval, NULL);
            Py_DECREF(name);
        }
        if (wrapped == NULL) {
            Py_XDECREF(ptype);
            Py_XDECREF(pval);
            Py_XDECREF(ptb);
            return -1;  /* the wrap failure is the reported error */
        }
        Py_INCREF(pval);
        PyException_SetCause(wrapped, pval);  /* steals; sets suppress */
        Py_INCREF(pval);
        PyException_SetContext(wrapped, pval);  /* steals */
        PyErr_SetObject(cls_process_error, wrapped);
        Py_DECREF(wrapped);
        Py_XDECREF(ptype);
        Py_XDECREF(pval);
        Py_XDECREF(ptb);
        return -1;
    }
}

/* Build one Packet exactly as the dataclass constructor would: same field
 * values, same global packet-id draw (the counter is re-fetched from the
 * module because checkpoint restore rebinds it), with the __post_init__
 * validations guaranteed by the caller's pre-checks (size > 0 from the
 * frame plan, send_time >= 0 from pacing, src != dst probed up front). */
static PyObject *
packet_new_fast(PyObject *src, PyObject *dst, PyObject *size,
                long long send_time, PyObject *message_id,
                Py_ssize_t fragment, int last, PyObject *header)
{
    PyObject *ids = PyObject_GetAttr(mod_packet, str_packet_ids);
    if (ids == NULL)
        return NULL;
    PyObject *pid = PyIter_Next(ids);
    Py_DECREF(ids);
    if (pid == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError,
                            "packet id counter exhausted");
        return NULL;
    }
    PyTypeObject *type = (PyTypeObject *)cls_packet;
    PyObject *packet = type->tp_new(type, empty_tuple, NULL);
    if (packet == NULL) {
        Py_DECREF(pid);
        return NULL;
    }
    PyObject *time_obj = PyLong_FromLongLong(send_time);
    PyObject *frag_obj = time_obj != NULL ? PyLong_FromSsize_t(fragment)
                                          : NULL;
    PyObject *zero = frag_obj != NULL ? PyLong_FromLong(0) : NULL;
    int rc = -1;
    if (zero != NULL &&
        PyObject_SetAttr(packet, str_src, src) == 0 &&
        PyObject_SetAttr(packet, str_dst, dst) == 0 &&
        PyObject_SetAttr(packet, str_size_bytes, size) == 0 &&
        PyObject_SetAttr(packet, str_send_time, time_obj) == 0 &&
        PyObject_SetAttr(packet, str_message_id, message_id) == 0 &&
        PyObject_SetAttr(packet, str_fragment, frag_obj) == 0 &&
        PyObject_SetAttr(packet, str_last_fragment,
                         last ? Py_True : Py_False) == 0 &&
        PyObject_SetAttr(packet, kw_payload, header) == 0 &&
        PyObject_SetAttr(packet, str_due_time, Py_None) == 0 &&
        PyObject_SetAttr(packet, str_deliver_time, Py_None) == 0 &&
        PyObject_SetAttr(packet, str_straggler, Py_False) == 0 &&
        PyObject_SetAttr(packet, str_kind, s_data) == 0 &&
        PyObject_SetAttr(packet, str_retransmit, zero) == 0 &&
        PyObject_SetAttr(packet, str_packet_id, pid) == 0)
        rc = 0;
    Py_XDECREF(zero);
    Py_XDECREF(frag_obj);
    Py_XDECREF(time_obj);
    Py_DECREF(pid);
    if (rc < 0) {
        Py_DECREF(packet);
        return NULL;
    }
    return packet;
}

/* Inlined ``NicModel.build_frames`` (paced) fused with ``_do_send``'s
 * emit-event scheduling: one pass over the memoized frame plan, building
 * each Packet and pushing its emit event without materialising the frame
 * list.  Returns 1 when handled, 0 when cold (frame plan or a wire-time
 * memo missing, tx cursor out of long-long range, self-send) — the caller
 * must then run the python build_frames, which computes, memoizes, and
 * raises exactly; -1 on error.  Nothing is consumed before the decision:
 * the message-id draw happens only after every probe hits, so a fallback
 * replays with identical counter state. */
static int
send_frames_fast(QueueObject *q, PyObject *dst, PyObject *nbytes,
                 PyObject *tag, PyObject *payload, long long now,
                 DrainAcc *acc)
{
    NodeCtx *ctx = &q->ctx;
    PyObject *plan = PyDict_GetItemWithError(ctx->frame_plans, nbytes);
    if (plan == NULL)
        return PyErr_Occurred() ? -1 : 0;
    if (!PyTuple_CheckExact(plan) || PyTuple_GET_SIZE(plan) != 2)
        return 0;
    PyObject *sizes = PyTuple_GET_ITEM(plan, 0);
    PyObject *wire_bytes_obj = PyTuple_GET_ITEM(plan, 1);
    if (!PyList_CheckExact(sizes))
        return 0;
    Py_ssize_t count = PyList_GET_SIZE(sizes);
    if (count <= 0)
        return 0;
    long long wire_bytes = PyLong_AsLongLong(wire_bytes_obj);
    if (wire_bytes == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return 0;
    }
    PyObject *src_obj = PyObject_GetAttr(ctx->nic, str_node_id);
    if (src_obj == NULL)
        return -1;
    int overflow = 0;
    int overflow2 = 0;
    long long src_ll = PyLong_AsLongLongAndOverflow(src_obj, &overflow);
    long long dst_ll = src_ll;
    if (!PyErr_Occurred())
        dst_ll = PyLong_AsLongLongAndOverflow(dst, &overflow2);
    if (PyErr_Occurred() || overflow || overflow2 || src_ll == dst_ll) {
        /* Non-int ids, or a self-send: python raises the exact error. */
        PyErr_Clear();
        Py_DECREF(src_obj);
        return 0;
    }
    PyObject *tx_obj = PyObject_GetAttr(ctx->nic, str_tx_free_at);
    if (tx_obj == NULL) {
        Py_DECREF(src_obj);
        return -1;
    }
    long long tx = PyLong_AsLongLongAndOverflow(tx_obj, &overflow);
    Py_DECREF(tx_obj);
    if (PyErr_Occurred() || overflow) {
        PyErr_Clear();
        Py_DECREF(src_obj);
        return 0;
    }
    /* Probe pass: every frame size must be a positive int with a memoized
     * wire time, and the pacing arithmetic must stay in range. */
    long long paced_tx = tx;
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *size_obj = PyList_GET_ITEM(sizes, i);
        if (!PyLong_CheckExact(size_obj))
            goto cold;
        long long size_ll = PyLong_AsLongLongAndOverflow(size_obj, &overflow);
        if (PyErr_Occurred() || overflow || size_ll <= 0)
            goto cold;
        PyObject *wire_obj = PyDict_GetItemWithError(ctx->wire_ns, size_obj);
        if (wire_obj == NULL) {
            if (PyErr_Occurred()) {
                Py_DECREF(src_obj);
                return -1;
            }
            goto cold;
        }
        long long wire = PyLong_AsLongLongAndOverflow(wire_obj, &overflow);
        if (PyErr_Occurred() || overflow || wire < 0)
            goto cold;
        long long start = paced_tx > now ? paced_tx : now;
        if (start > LLONG_MAX - wire)
            goto cold;
        paced_tx = start + wire;
    }
    {
        /* Commit: draw the message id, then build and schedule. */
        PyObject *mid_iter = PyObject_GetAttr(ctx->nic, str_message_ids);
        if (mid_iter == NULL) {
            Py_DECREF(src_obj);
            return -1;
        }
        PyObject *mid = PyIter_Next(mid_iter);
        Py_DECREF(mid_iter);
        if (mid == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_RuntimeError,
                                "message id counter exhausted");
            Py_DECREF(src_obj);
            return -1;
        }
        PyObject *header = PyTuple_Pack(3, tag, nbytes, payload);
        if (header == NULL) {
            Py_DECREF(mid);
            Py_DECREF(src_obj);
            return -1;
        }
        int failed = 0;
        /* schedule() sifts single events; schedule_many's bulk rule is
         * computed against the heap size before the batch — both exactly
         * as the python _do_send dispatches them. */
        int bulk = count > 1 && count * 8 >= q->n;
        if (queue_reserve(q, q->n + count) < 0)
            failed = 1;
        paced_tx = tx;
        for (Py_ssize_t i = 0; !failed && i < count; i++) {
            PyObject *size_obj = PyList_GET_ITEM(sizes, i);
            PyObject *wire_obj = PyDict_GetItemWithError(ctx->wire_ns,
                                                         size_obj);
            if (wire_obj == NULL) {
                failed = 1;
                break;
            }
            long long wire = PyLong_AsLongLong(wire_obj);
            long long start = paced_tx > now ? paced_tx : now;
            paced_tx = start + wire;
            int last = (i == count - 1);
            PyObject *packet = packet_new_fast(src_obj, dst, size_obj, start,
                                               mid, i, last,
                                               last ? header : Py_None);
            if (packet == NULL) {
                failed = 1;
                break;
            }
            PyObject *event = event_alloc_raw(start, Py_None, s_emit, packet,
                                              q->next_seq, 1);
            Py_DECREF(packet);
            if (event == NULL) {
                failed = 1;
                break;
            }
            qentry *slot = &q->heap[q->n];
            slot->time = start;
            slot->seq = q->next_seq;
            slot->event = event;  /* transfer */
            q->n += 1;
            q->next_seq += 1;
            q->live += 1;
            if (!bulk)
                sift_up(q->heap, q->n - 1);
        }
        if (bulk || failed)
            heapify(q->heap, q->n);
        Py_DECREF(header);
        Py_DECREF(mid);
        Py_DECREF(src_obj);
        if (failed)
            return -1;
        PyObject *new_tx = PyLong_FromLongLong(paced_tx);
        if (new_tx == NULL)
            return -1;
        int rc = PyObject_SetAttr(ctx->nic, str_tx_free_at, new_tx);
        Py_DECREF(new_tx);
        if (rc < 0)
            return -1;
        acc->nic_msgs_sent += 1;
        acc->nic_frames_sent += count;
        acc->nic_bytes_sent += wire_bytes;
        return 1;
    }

cold:
    PyErr_Clear();
    Py_DECREF(src_obj);
    return 0;
}

/* Inlined ``NicModel._deposit``: append (next arrival seq, message) to
 * the (src, tag) mailbox deque, creating the deque on first use.  The
 * arrival-sequence counter is re-fetched from the NIC per call (it is a
 * plain attribute a restore may rebind). */
static int
deposit_fast(NodeCtx *ctx, PyObject *msg, PyObject *src, PyObject *tag)
{
    int rc = -1;
    PyObject *key = PyTuple_Pack(2, src, tag);
    if (key == NULL)
        return -1;
    PyObject *dq = PyDict_GetItemWithError(ctx->mailbox, key);
    if (dq != NULL)
        Py_INCREF(dq);
    else {
        if (PyErr_Occurred()) {
            Py_DECREF(key);
            return -1;
        }
        dq = PyObject_CallNoArgs(cls_deque);
        if (dq == NULL) {
            Py_DECREF(key);
            return -1;
        }
        if (PyDict_SetItem(ctx->mailbox, key, dq) < 0) {
            Py_DECREF(dq);
            Py_DECREF(key);
            return -1;
        }
    }
    Py_DECREF(key);
    PyObject *seq_iter = PyObject_GetAttr(ctx->nic, str_mailbox_seq);
    PyObject *seq = NULL;
    if (seq_iter != NULL) {
        seq = PyIter_Next(seq_iter);
        Py_DECREF(seq_iter);
    }
    if (seq == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError,
                            "mailbox seq counter exhausted");
        Py_DECREF(dq);
        return -1;
    }
    PyObject *entry = PyTuple_Pack(2, seq, msg);
    Py_DECREF(seq);
    if (entry != NULL) {
        PyObject *appended = PyObject_CallMethodObjArgs(dq, str_append,
                                                        entry, NULL);
        Py_DECREF(entry);
        if (appended != NULL) {
            Py_DECREF(appended);
            rc = 0;
        }
    }
    Py_DECREF(dq);
    return rc;
}

/* Build a Message via tp_new + slot stores.  Every field is set
 * explicitly: tp_new bypasses the dataclass defaults. */
static PyObject *
message_new_fast(PyObject *src, PyObject *dst, PyObject *tag,
                 PyObject *nbytes, PyObject *payload, PyObject *message_id,
                 PyObject *sent_at, PyObject *arrived_at,
                 PyObject *ideal_arrival, PyObject *fragments)
{
    PyTypeObject *type = (PyTypeObject *)cls_message;
    PyObject *msg = type->tp_new(type, empty_tuple, NULL);
    if (msg == NULL)
        return NULL;
    if (PyObject_SetAttr(msg, str_src, src) < 0 ||
        PyObject_SetAttr(msg, str_dst, dst) < 0 ||
        PyObject_SetAttr(msg, kw_tag, tag) < 0 ||
        PyObject_SetAttr(msg, str_nbytes, nbytes) < 0 ||
        PyObject_SetAttr(msg, kw_payload, payload) < 0 ||
        PyObject_SetAttr(msg, str_message_id, message_id) < 0 ||
        PyObject_SetAttr(msg, str_sent_at, sent_at) < 0 ||
        PyObject_SetAttr(msg, str_arrived_at, arrived_at) < 0 ||
        PyObject_SetAttr(msg, str_ideal_arrival, ideal_arrival) < 0 ||
        PyObject_SetAttr(msg, str_fragments, fragments) < 0) {
        Py_DECREF(msg);
        return NULL;
    }
    return msg;
}

/* Inlined ``NicModel.receive_fragment``, both shapes: the single-frame
 * completion and the incremental multi-fragment reassembly.  Irregular
 * packets (duck-typed, non-tuple headers, foreign reassembly entries,
 * non-int stamps) run the python method whole — *used = 0 and no counter
 * or state has been touched.  With *used = 1, returns the completed
 * Message, Py_None when fragments are still outstanding, or NULL with
 * the exception set. */
static PyObject *
receive_fragment_fast(NodeCtx *ctx, PyObject *packet, DrainAcc *acc,
                      int *used)
{
    *used = 0;
    if ((PyObject *)Py_TYPE(packet) != (PyObject *)cls_packet)
        return NULL;
    PyObject *last_obj = PyObject_GetAttr(packet, str_last_fragment);
    if (last_obj == NULL)
        return NULL;
    int is_last = PyObject_IsTrue(last_obj);
    Py_DECREF(last_obj);
    if (is_last < 0)
        return NULL;
    long long frag;
    if (attr_as_longlong(packet, str_fragment, &frag) < 0)
        return NULL;
    PyObject *payload = NULL;  /* (tag, nbytes, payload) header when last */
    if (is_last) {
        payload = PyObject_GetAttr(packet, kw_payload);
        if (payload == NULL)
            return NULL;
        if (!PyTuple_CheckExact(payload) || PyTuple_GET_SIZE(payload) != 3) {
            Py_DECREF(payload);
            return NULL;  /* irregular header: python unpack semantics */
        }
    }
    PyObject *msg = NULL;
    PyObject *src = NULL, *dst = NULL, *mid = NULL, *sent = NULL;
    PyObject *deliver = NULL, *due = NULL;
    PyObject *key = NULL, *entry = NULL;
    long long size_ll, sent_ll = 0, deliver_ll = 0, due_ll = 0;
    int single = is_last && frag == 0;
    if (attr_as_longlong(packet, str_size_bytes, &size_ll) < 0)
        goto probe_fail;
    if ((src = PyObject_GetAttr(packet, str_src)) == NULL ||
        (dst = PyObject_GetAttr(ctx->nic, str_node_id)) == NULL ||
        (mid = PyObject_GetAttr(packet, str_message_id)) == NULL ||
        (sent = PyObject_GetAttr(packet, str_send_time)) == NULL)
        goto probe_fail;
    if (!single) {
        /* The reassembly entry must be absent or the exact dataclass,
         * and the arithmetic operands exact ints, before anything is
         * counted or mutated. */
        sent_ll = PyLong_AsLongLong(sent);
        if (sent_ll == -1 && PyErr_Occurred()) {
            PyErr_Clear();
            goto cold;
        }
        key = PyTuple_Pack(2, src, mid);
        if (key == NULL)
            goto probe_fail;
        entry = PyDict_GetItemWithError(ctx->reassembly, key);
        if (entry == NULL) {
            if (PyErr_Occurred())
                goto probe_fail;
        }
        else {
            if ((PyObject *)Py_TYPE(entry) != cls_reassembly)
                goto cold;
            Py_INCREF(entry);
        }
    }
    deliver = PyObject_GetAttr(packet, str_deliver_time);
    due = deliver != NULL ? PyObject_GetAttr(packet, str_due_time) : NULL;
    if (due == NULL)
        goto probe_fail;
    if (deliver == Py_None || due == Py_None) {
        /* The exact python precondition — raised before any counter. */
        *used = 1;
        PyErr_SetString(PyExc_ValueError,
                        "fragment reached NIC without delivery stamps");
        goto fail;
    }
    if (!single) {
        deliver_ll = PyLong_AsLongLong(deliver);
        if (deliver_ll == -1 && PyErr_Occurred()) {
            PyErr_Clear();
            goto cold;
        }
        due_ll = PyLong_AsLongLong(due);
        if (due_ll == -1 && PyErr_Occurred()) {
            PyErr_Clear();
            goto cold;
        }
    }
    *used = 1;
    acc->nic_frames_recv += 1;
    acc->nic_bytes_recv += size_ll;

    if (single) {
        PyObject *one = PyLong_FromLong(1);
        if (one == NULL)
            goto fail;
        msg = message_new_fast(src, dst, PyTuple_GET_ITEM(payload, 0),
                               PyTuple_GET_ITEM(payload, 1),
                               PyTuple_GET_ITEM(payload, 2), mid, sent,
                               deliver, due, one);
        Py_DECREF(one);
        if (msg == NULL)
            goto fail;
        if (deposit_fast(ctx, msg, src, PyTuple_GET_ITEM(payload, 0)) < 0)
            goto fail;
        acc->nic_msgs_recv += 1;
        goto done;
    }

    /* Incremental reassembly, keyed (src, message_id). */
    if (entry == NULL) {
        PyObject *zero = PyLong_FromLong(0);
        PyObject *interim = zero != NULL
            ? message_new_fast(src, dst, zero, zero, Py_None, mid, sent,
                               zero, zero, zero)
            : NULL;
        if (interim == NULL) {
            Py_XDECREF(zero);
            goto fail;
        }
        PyTypeObject *type = (PyTypeObject *)cls_reassembly;
        entry = type->tp_new(type, empty_tuple, NULL);
        int rc = entry != NULL &&
                 PyObject_SetAttr(entry, str_message, interim) == 0 &&
                 PyObject_SetAttr(entry, str_received, zero) == 0 &&
                 PyObject_SetAttr(entry, str_expected, Py_None) == 0 &&
                 PyObject_SetAttr(entry, str_max_deliver, zero) == 0 &&
                 PyObject_SetAttr(entry, str_max_due, zero) == 0 &&
                 PyDict_SetItem(ctx->reassembly, key, entry) == 0;
        Py_DECREF(interim);
        Py_DECREF(zero);
        if (!rc)
            goto fail;
    }
    {
        long long received, max_deliver, max_due, expected = -1;
        if (attr_as_longlong(entry, str_received, &received) < 0 ||
            attr_as_longlong(entry, str_max_deliver, &max_deliver) < 0 ||
            attr_as_longlong(entry, str_max_due, &max_due) < 0)
            goto fail;
        received += 1;
        PyObject *received_obj = PyLong_FromLongLong(received);
        if (received_obj == NULL)
            goto fail;
        int rc = PyObject_SetAttr(entry, str_received, received_obj);
        if (rc == 0 && deliver_ll > max_deliver)
            rc = PyObject_SetAttr(entry, str_max_deliver, deliver);
        if (rc == 0 && due_ll > max_due)
            rc = PyObject_SetAttr(entry, str_max_due, due);
        PyObject *interim = rc == 0 ? PyObject_GetAttr(entry, str_message)
                                    : NULL;
        if (interim == NULL) {
            Py_DECREF(received_obj);
            goto fail;
        }
        long long cur_sent;
        if (attr_as_longlong(interim, str_sent_at, &cur_sent) < 0 ||
            (sent_ll < cur_sent &&
             PyObject_SetAttr(interim, str_sent_at, sent) < 0)) {
            Py_DECREF(received_obj);
            Py_DECREF(interim);
            goto fail;
        }
        if (is_last) {
            expected = frag + 1;
            PyObject *exp_obj = PyLong_FromLongLong(expected);
            rc = exp_obj != NULL &&
                 PyObject_SetAttr(entry, str_expected, exp_obj) == 0 &&
                 PyObject_SetAttr(interim, kw_tag,
                                  PyTuple_GET_ITEM(payload, 0)) == 0 &&
                 PyObject_SetAttr(interim, str_nbytes,
                                  PyTuple_GET_ITEM(payload, 1)) == 0 &&
                 PyObject_SetAttr(interim, kw_payload,
                                  PyTuple_GET_ITEM(payload, 2)) == 0
                     ? 0 : -1;
            Py_XDECREF(exp_obj);
            if (rc < 0) {
                Py_DECREF(received_obj);
                Py_DECREF(interim);
                goto fail;
            }
        }
        else {
            PyObject *exp_obj = PyObject_GetAttr(entry, str_expected);
            if (exp_obj == NULL) {
                Py_DECREF(received_obj);
                Py_DECREF(interim);
                goto fail;
            }
            if (exp_obj == Py_None)
                expected = -1;
            else {
                expected = PyLong_AsLongLong(exp_obj);
                if (expected == -1 && PyErr_Occurred()) {
                    Py_DECREF(exp_obj);
                    Py_DECREF(received_obj);
                    Py_DECREF(interim);
                    goto fail;
                }
            }
            Py_DECREF(exp_obj);
        }
        if (expected < 0 || received < expected) {
            Py_DECREF(received_obj);
            Py_DECREF(interim);
            msg = Py_None;
            Py_INCREF(msg);
            goto done;
        }
        /* Complete: promote the interim message and deposit it. */
        PyObject *arrived = PyObject_GetAttr(entry, str_max_deliver);
        PyObject *ideal = arrived != NULL
                              ? PyObject_GetAttr(entry, str_max_due)
                              : NULL;
        PyObject *mtag = ideal != NULL ? PyObject_GetAttr(interim, kw_tag)
                                       : NULL;
        rc = mtag != NULL &&
             PyDict_DelItem(ctx->reassembly, key) == 0 &&
             PyObject_SetAttr(interim, str_arrived_at, arrived) == 0 &&
             PyObject_SetAttr(interim, str_ideal_arrival, ideal) == 0 &&
             PyObject_SetAttr(interim, str_fragments, received_obj) == 0 &&
             deposit_fast(ctx, interim, src, mtag) == 0
                 ? 0 : -1;
        Py_XDECREF(mtag);
        Py_XDECREF(ideal);
        Py_XDECREF(arrived);
        Py_DECREF(received_obj);
        if (rc < 0) {
            Py_DECREF(interim);
            goto fail;
        }
        acc->nic_msgs_recv += 1;
        msg = interim;  /* transfer */
        goto done;
    }

done:
    Py_XDECREF(entry);
    Py_XDECREF(key);
    Py_XDECREF(due);
    Py_XDECREF(deliver);
    Py_XDECREF(sent);
    Py_XDECREF(mid);
    Py_XDECREF(dst);
    Py_XDECREF(src);
    Py_XDECREF(payload);
    return msg;

cold:
    *used = 0;
probe_fail:
fail:
    Py_XDECREF(entry);
    Py_XDECREF(key);
    Py_XDECREF(due);
    Py_XDECREF(deliver);
    Py_XDECREF(sent);
    Py_XDECREF(mid);
    Py_XDECREF(dst);
    Py_XDECREF(src);
    Py_XDECREF(payload);
    return NULL;
}

/* Inlined exact-(src, tag) ``NicModel.match``, emptied-queue deletion
 * included; wildcard requests and subclassed Recv objects fall back to
 * the python scan (*used = 0). */
static PyObject *
match_fast(NodeCtx *ctx, PyObject *request, int *used)
{
    *used = 0;
    if ((PyObject *)Py_TYPE(request) != cls_recv)
        return NULL;
    PyObject *src = PyObject_GetAttr(request, str_src);
    if (src == NULL) {
        PyErr_Clear();
        return NULL;
    }
    PyObject *tag = PyObject_GetAttr(request, kw_tag);
    if (tag == NULL) {
        PyErr_Clear();
        Py_DECREF(src);
        return NULL;
    }
    int overflow = 0;
    long long s = PyLong_AsLongLongAndOverflow(src, &overflow);
    long long t = !PyErr_Occurred() && !overflow
                      ? PyLong_AsLongLongAndOverflow(tag, &overflow)
                      : 0;
    if (PyErr_Occurred() || overflow ||
        s == any_source_val || t == any_tag_val) {
        PyErr_Clear();
        Py_DECREF(src);
        Py_DECREF(tag);
        return NULL;
    }
    *used = 1;
    PyObject *key = PyTuple_Pack(2, src, tag);
    Py_DECREF(src);
    Py_DECREF(tag);
    if (key == NULL)
        return NULL;
    PyObject *dq = PyDict_GetItemWithError(ctx->mailbox, key);
    Py_ssize_t queued = dq != NULL ? PyObject_Size(dq) : 0;
    if (queued <= 0) {
        Py_DECREF(key);
        if (PyErr_Occurred())
            return NULL;
        Py_RETURN_NONE;
    }
    PyObject *entry = PyObject_CallMethodObjArgs(dq, str_popleft, NULL);
    /* An emptied queue leaves the dict (collectives tag every message
     * uniquely, so kept keys would grow with the message count). */
    if (entry != NULL && queued == 1 &&
        PyDict_DelItem(ctx->mailbox, key) < 0)
        Py_CLEAR(entry);
    Py_DECREF(key);
    if (entry == NULL)
        return NULL;
    PyObject *msg;
    if (PyTuple_CheckExact(entry) && PyTuple_GET_SIZE(entry) == 2) {
        msg = PyTuple_GET_ITEM(entry, 1);
        Py_INCREF(msg);
    }
    else
        msg = PySequence_GetItem(entry, 1);
    Py_DECREF(entry);
    return msg;
}

/* Inlined ``SimulatedNode._do_send`` for the transport-less path. */
static int
do_send_fast(QueueObject *q, PyObject *activity_hook, long long now,
             PyObject *now_obj, PyObject *req, DrainAcc *acc)
{
    NodeCtx *ctx = &q->ctx;
    PyObject *dst = NULL, *nbytes = NULL, *tag = NULL, *payload = NULL;
    PyObject *frames = NULL, *fast = NULL;
    int rc = -1;
    if ((dst = PyObject_GetAttr(req, str_dst)) == NULL ||
        (nbytes = PyObject_GetAttr(req, str_nbytes)) == NULL ||
        (tag = PyObject_GetAttr(req, kw_tag)) == NULL ||
        (payload = PyObject_GetAttr(req, kw_payload)) == NULL)
        goto out;
    int sent = send_frames_fast(q, dst, nbytes, tag, payload, now, acc);
    if (sent < 0)
        goto out;
    if (sent)
        goto paced;
    frames = PyObject_CallFunctionObjArgs(ctx->build_frames, dst, nbytes, tag,
                                          payload, now_obj, NULL);
    if (frames == NULL)
        goto out;
    fast = PySequence_Fast(frames, "build_frames must return a sequence");
    if (fast == NULL)
        goto out;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    if (count == 1) {
        long long send_time;
        if (attr_as_longlong(items[0], str_send_time, &send_time) < 0 ||
            schedule_internal(q, send_time, s_emit, items[0]) < 0)
            goto out;
    }
    else {
        /* Mirror schedule_many's bulk rule (computed against the heap
         * size before the batch) so counters and behaviour match the
         * python reference exactly. */
        int bulk = count * 8 >= q->n;
        if (queue_reserve(q, q->n + count) < 0)
            goto out;
        for (Py_ssize_t i = 0; i < count; i++) {
            long long send_time;
            if (attr_as_longlong(items[i], str_send_time, &send_time) < 0) {
                heapify(q->heap, q->n);
                goto out;
            }
            if (send_time < 0) {
                PyErr_Format(PyExc_ValueError,
                             "event time must be non-negative, got %lld",
                             send_time);
                heapify(q->heap, q->n);
                goto out;
            }
            PyObject *event = event_alloc_raw(send_time, Py_None, s_emit,
                                              items[i], q->next_seq, 1);
            if (event == NULL) {
                heapify(q->heap, q->n);
                goto out;
            }
            qentry *slot = &q->heap[q->n];
            slot->time = send_time;
            slot->seq = q->next_seq;
            slot->event = event;  /* transfer */
            q->n += 1;
            q->next_seq += 1;
            q->live += 1;
            if (!bulk)
                sift_up(q->heap, q->n - 1);
        }
        if (bulk)
            heapify(q->heap, q->n);
    }
paced:
    acc->msgs_sent += 1;
    PyObject *cost = PyDict_GetItemWithError(ctx->send_memo, nbytes);
    if (cost != NULL)
        Py_INCREF(cost);
    else {
        if (PyErr_Occurred())
            goto out;
        cost = PyObject_CallOneArg(ctx->send_cost, nbytes);
        if (cost == NULL)
            goto out;
        if (PyDict_SetItem(ctx->send_memo, nbytes, cost) < 0) {
            Py_DECREF(cost);
            goto out;
        }
    }
    rc = wake_after(q, activity_hook, now, now_obj, cost, s_busy, Py_None);
    Py_DECREF(cost);
out:
    Py_XDECREF(fast);
    Py_XDECREF(frames);
    Py_XDECREF(payload);
    Py_XDECREF(tag);
    Py_XDECREF(nbytes);
    Py_XDECREF(dst);
    return rc;
}

/* Inlined ``SimulatedNode._advance_app`` + ``_interpret``.  Unknown or
 * subclassed requests fall back to the python interpreter (isinstance
 * semantics and the exact TypeError), and any transport-owning send
 * falls back to ``_do_send`` whole. */
static int
handle_app_wake(QueueObject *q, PyObject *activity_hook, long long now,
                PyObject *value, DrainAcc *acc)
{
    NodeCtx *ctx = &q->ctx;
    acc->wakeups += 1;
    if (ctx->app_log != Py_None && PyList_Append(ctx->app_log, value) < 0)
        return -1;
    PyObject *now_obj = PyLong_FromLongLong(now);
    if (now_obj == NULL)
        return -1;
    PyObject *req = NULL, *exit_result = NULL;
    if (step_inline(ctx, value, &req, &exit_result) < 0) {
        Py_DECREF(now_obj);
        return -1;
    }
    if (req == NULL) {
        /* Process finished (generator returned or raised ProcessExit):
         * the node finish protocol of ``_advance_app``. */
        int rc = -1;
        if (PyObject_SetAttr(ctx->node, str_finished, Py_True) == 0 &&
            PyObject_SetAttr(ctx->node, str_app_finish_time, now_obj) == 0 &&
            PyObject_SetAttr(ctx->node, str_app_result, exit_result) == 0 &&
            node_set_activity(ctx->node, activity_hook, now_obj,
                              s_idle) == 0)
            rc = 0;
        Py_DECREF(exit_result);
        Py_DECREF(now_obj);
        return rc;
    }
    int rc = -1;
    PyObject *request_type = (PyObject *)Py_TYPE(req);
    if (request_type == cls_compute) {
        PyObject *ops = PyObject_GetAttr(req, str_ops);
        if (ops == NULL)
            goto out;
        PyObject *delay = PyDict_GetItemWithError(ctx->compute_memo, ops);
        if (delay != NULL)
            Py_INCREF(delay);
        else {
            if (PyErr_Occurred()) {
                Py_DECREF(ops);
                goto out;
            }
            delay = PyObject_CallOneArg(ctx->compute_time, ops);
            if (delay == NULL) {
                Py_DECREF(ops);
                goto out;
            }
            if (PyDict_SetItem(ctx->compute_memo, ops, delay) < 0) {
                Py_DECREF(delay);
                Py_DECREF(ops);
                goto out;
            }
        }
        Py_DECREF(ops);
        rc = wake_after(q, activity_hook, now, now_obj, delay, s_busy,
                        Py_None);
        Py_DECREF(delay);
    }
    else if (request_type == cls_send) {
        if (ctx->transport != Py_None) {
            PyObject *result = PyObject_CallFunctionObjArgs(ctx->do_send, req,
                                                            now_obj, NULL);
            if (result != NULL) {
                Py_DECREF(result);
                rc = 0;
            }
        }
        else
            rc = do_send_fast(q, activity_hook, now, now_obj, req, acc);
    }
    else if (request_type == cls_recv) {
        int used;
        PyObject *msg = match_fast(ctx, req, &used);
        if (msg == NULL && !used && !PyErr_Occurred())
            msg = PyObject_CallOneArg(ctx->match, req);
        if (msg == NULL)
            goto out;
        if (msg != Py_None)
            rc = accept_message(q, activity_hook, now, now_obj, msg, acc);
        else if (PyObject_SetAttr(ctx->node, str_blocked_recv, req) == 0 &&
                 PyObject_SetAttr(ctx->node, str_blocked_since, now_obj) == 0 &&
                 node_set_activity(ctx->node, activity_hook, now_obj,
                                   s_idle) == 0)
            rc = 0;
        Py_DECREF(msg);
    }
    else if (request_type == cls_compute_time || request_type == cls_sleep) {
        PyObject *duration = PyObject_GetAttr(req, str_duration);
        if (duration == NULL)
            goto out;
        rc = wake_after(q, activity_hook, now, now_obj, duration,
                        request_type == cls_sleep ? s_idle : s_busy, Py_None);
        Py_DECREF(duration);
    }
    else {
        PyObject *result = PyObject_CallFunctionObjArgs(ctx->interpret, req,
                                                        now_obj, NULL);
        if (result != NULL) {
            Py_DECREF(result);
            rc = 0;
        }
    }
out:
    Py_DECREF(req);
    Py_DECREF(now_obj);
    return rc;
}

/* Inlined ``SimulatedNode._on_fragment`` for plain data fragments on
 * transport-less nodes; acks and transport nodes run the python handler
 * whole (it does its own accounting — no C counter is touched first). */
static int
handle_delivery(QueueObject *q, PyObject *activity_hook, long long now,
                PyObject *packet, DrainAcc *acc)
{
    NodeCtx *ctx = &q->ctx;
    PyObject *kind = PyObject_GetAttr(packet, str_kind);
    if (kind == NULL)
        return -1;
    int is_ack = (kind == s_ack) ||
                 (PyUnicode_Check(kind) &&
                  PyUnicode_Compare(kind, s_ack) == 0 && !PyErr_Occurred());
    Py_DECREF(kind);
    if (PyErr_Occurred())
        return -1;
    if (is_ack || ctx->transport != Py_None) {
        PyObject *now_obj = PyLong_FromLongLong(now);
        if (now_obj == NULL)
            return -1;
        PyObject *result = PyObject_CallFunctionObjArgs(ctx->on_fragment,
                                                        now_obj, packet, NULL);
        Py_DECREF(now_obj);
        if (result == NULL)
            return -1;
        Py_DECREF(result);
        return 0;
    }
    acc->deliveries += 1;
    int used;
    PyObject *msg = receive_fragment_fast(ctx, packet, acc, &used);
    if (msg == NULL && used)
        return -1;
    if (msg == NULL) {
        if (PyErr_Occurred())
            return -1;
        msg = PyObject_CallOneArg(ctx->receive_fragment, packet);
    }
    if (msg == NULL)
        return -1;
    if (msg == Py_None) {
        Py_DECREF(msg);
        return 0;
    }
    PyObject *blocked = PyObject_GetAttr(ctx->node, str_blocked_recv);
    if (blocked == NULL) {
        Py_DECREF(msg);
        return -1;
    }
    if (blocked == Py_None) {
        Py_DECREF(blocked);
        Py_DECREF(msg);
        return 0;
    }
    int match = -1;
    PyObject *msrc = PyObject_GetAttr(msg, str_src);
    PyObject *mtag = msrc != NULL ? PyObject_GetAttr(msg, kw_tag) : NULL;
    if (mtag != NULL) {
        if ((PyObject *)Py_TYPE(blocked) == cls_recv) {
            long long bsrc, btag;
            long long src = PyLong_AsLongLong(msrc);
            long long mtg = PyLong_AsLongLong(mtag);
            if (!((src == -1 || mtg == -1) && PyErr_Occurred()) &&
                attr_as_longlong(blocked, str_src, &bsrc) == 0 &&
                attr_as_longlong(blocked, kw_tag, &btag) == 0)
                match = (bsrc == any_source_val || bsrc == src) &&
                        (btag == any_tag_val || btag == mtg);
        }
        else {
            PyObject *verdict = PyObject_CallMethodObjArgs(blocked, str_matches,
                                                           msrc, mtag, NULL);
            if (verdict != NULL) {
                match = PyObject_IsTrue(verdict);
                Py_DECREF(verdict);
            }
        }
    }
    Py_XDECREF(mtag);
    Py_XDECREF(msrc);
    Py_DECREF(msg);
    if (match < 0) {
        Py_DECREF(blocked);
        return -1;
    }
    if (!match) {
        Py_DECREF(blocked);
        return 0;
    }
    int pull_used;
    PyObject *pulled = match_fast(ctx, blocked, &pull_used);
    if (pulled == NULL && !pull_used && !PyErr_Occurred())
        pulled = PyObject_CallOneArg(ctx->match, blocked);
    Py_DECREF(blocked);
    if (pulled == NULL)
        return -1;
    if (pulled == Py_None) {
        Py_DECREF(pulled);
        PyErr_SetString(PyExc_AssertionError,
                        "blocked recv matched but the mailbox pull failed");
        return -1;
    }
    PyObject *now_obj = PyLong_FromLongLong(now);
    if (now_obj == NULL) {
        Py_DECREF(pulled);
        return -1;
    }
    int rc = -1;
    long long since;
    if (PyObject_SetAttr(ctx->node, str_blocked_recv, Py_None) == 0 &&
        attr_as_longlong(ctx->node, str_blocked_since, &since) == 0) {
        acc->blocked_time += now - since;
        rc = accept_message(q, activity_hook, now, now_obj, pulled, acc);
    }
    Py_DECREF(now_obj);
    Py_DECREF(pulled);
    return rc;
}

/* Bind the drained node's handler surface onto the queue.  Returns 0 on
 * success; -1 (with the error cleared) when the node does not expose
 * the full SimulatedNode surface, in which case the caller must use the
 * generic dispatch path. */
static int
ctx_bind(QueueObject *q, PyObject *node)
{
    NodeCtx c;
    memset(&c, 0, sizeof c);
    PyObject *tmp = PyObject_GetAttr(node, str_queue);
    if (tmp == NULL)
        goto fail;
    int is_self = (tmp == (PyObject *)q);
    Py_DECREF(tmp);
    if (!is_self)
        goto fail;  /* inline scheduling must target this very heap */
    if ((c.stats = PyObject_GetAttr(node, str_stats)) == NULL)
        goto fail;
    if ((c.process = PyObject_GetAttr(node, str_process)) == NULL)
        goto fail;
    c.step = PyObject_GetAttr(c.process, str_step);
    if (c.step == NULL)
        goto fail;
    if ((tmp = PyObject_GetAttr(c.process, str_generator)) == NULL)
        goto fail;
    c.gen_send = PyObject_GetAttr(tmp, str_send);
    Py_DECREF(tmp);
    if (c.gen_send == NULL)
        goto fail;
    if ((c.app_log = PyObject_GetAttr(node, str_app_log)) == NULL)
        goto fail;
    if (c.app_log != Py_None && !PyList_Check(c.app_log))
        goto fail;
    if ((c.transport = PyObject_GetAttr(node, str_transport)) == NULL)
        goto fail;
    if ((c.nic = PyObject_GetAttr(node, str_nic)) == NULL)
        goto fail;
    c.build_frames = PyObject_GetAttr(c.nic, str_build_frames);
    c.receive_fragment = PyObject_GetAttr(c.nic, str_receive_fragment);
    c.match = PyObject_GetAttr(c.nic, str_match);
    c.nic_stats = PyObject_GetAttr(c.nic, str_stats);
    c.frame_plans = PyObject_GetAttr(c.nic, str_frame_plans);
    c.wire_ns = PyObject_GetAttr(c.nic, str_wire_ns);
    c.mailbox = PyObject_GetAttr(c.nic, str_mailbox);
    c.reassembly = PyObject_GetAttr(c.nic, str_reassembly);
    if (c.build_frames == NULL || c.receive_fragment == NULL ||
        c.match == NULL || c.nic_stats == NULL || c.frame_plans == NULL ||
        c.wire_ns == NULL || c.mailbox == NULL || c.reassembly == NULL)
        goto fail;
    if (!PyDict_CheckExact(c.frame_plans) || !PyDict_CheckExact(c.wire_ns) ||
        !PyDict_CheckExact(c.mailbox) || !PyDict_CheckExact(c.reassembly))
        goto fail;
    if ((c.compute_memo = PyObject_GetAttr(node, str_compute_memo)) == NULL ||
        (c.send_memo = PyObject_GetAttr(node, str_send_cost_memo)) == NULL ||
        (c.recv_memo = PyObject_GetAttr(node, str_recv_cost_memo)) == NULL)
        goto fail;
    if (!PyDict_CheckExact(c.compute_memo) ||
        !PyDict_CheckExact(c.send_memo) || !PyDict_CheckExact(c.recv_memo))
        goto fail;
    if ((tmp = PyObject_GetAttr(node, str_cpu)) == NULL)
        goto fail;
    c.compute_time = PyObject_GetAttr(tmp, str_compute_time);
    Py_DECREF(tmp);
    if (c.compute_time == NULL)
        goto fail;
    if ((tmp = PyObject_GetAttr(node, str_costs)) == NULL)
        goto fail;
    c.send_cost = PyObject_GetAttr(tmp, str_send_cost);
    c.recv_cost = PyObject_GetAttr(tmp, str_recv_cost);
    Py_DECREF(tmp);
    if (c.send_cost == NULL || c.recv_cost == NULL)
        goto fail;
    if ((c.interpret = PyObject_GetAttr(node, str_interpret)) == NULL ||
        (c.do_send = PyObject_GetAttr(node, str_do_send)) == NULL ||
        (c.on_fragment = PyObject_GetAttr(node, str_on_fragment)) == NULL)
        goto fail;
    ctx_release(q);
    Py_INCREF(node);
    c.node = node;
    q->ctx = c;
    return 0;

fail:
    PyErr_Clear();
    {
        PyObject **slots = (PyObject **)&c;
        for (size_t i = 0; i < NODECTX_SLOTS; i++)
            Py_XDECREF(slots[i]);
    }
    return -1;
}

/* What one ``drain`` / ``handle_next`` call dispatches through: the
 * inlined handlers over the bound surface (``q->ctx``), or — for nodes
 * that do not expose the full SimulatedNode surface (duck-typed test
 * doubles, foreign queue wiring) — the node's python handlers, fetched
 * per call.  References are owned unless noted. */
typedef struct {
    PyObject *node;           /* borrowed from the caller */
    int bound;                /* dispatch through q->ctx */
    PyObject *emit_hook;
    PyObject *activity_hook;  /* bound only */
    PyObject *stats;          /* generic only */
    PyObject *advance;        /* generic only: node._advance_app */
    PyObject *on_fragment;    /* generic only: node._on_fragment */
    DrainAcc acc;
} Dispatch;

/* Flush the deferred counters and release what ``dispatch_begin`` took.
 * Runs on error paths too (the pending exception is preserved). */
static void
dispatch_end(QueueObject *q, Dispatch *d)
{
    if (d->bound)
        acc_flush(q->ctx.stats, q->ctx.nic_stats, &d->acc);
    else if (d->stats != NULL)
        acc_flush(d->stats, NULL, &d->acc);
    q->in_drain -= 1;
    if (q->ctx_drop_pending && !q->in_drain) {
        q->ctx_drop_pending = 0;
        ctx_release(q);
    }
    Py_XDECREF(d->emit_hook);
    Py_XDECREF(d->activity_hook);
    Py_XDECREF(d->stats);
    Py_XDECREF(d->advance);
    Py_XDECREF(d->on_fragment);
}

static int
dispatch_begin(QueueObject *q, PyObject *node, Dispatch *d)
{
    memset(d, 0, sizeof *d);
    d->node = node;
    d->bound = q->ctx.node == node || ctx_bind(q, node) == 0;
    q->in_drain += 1;
    /* The driver re-installs emit/activity hooks per run, and a node can
     * in principle be reused across runs, so the two hooks are re-read
     * on every call instead of cached on the binding. */
    if ((d->emit_hook = PyObject_GetAttr(node, str_emit_hook)) == NULL)
        goto fail;
    if (d->bound) {
        d->activity_hook = PyObject_GetAttr(node, str_activity_hook);
        if (d->activity_hook == NULL)
            goto fail;
    }
    else if ((d->stats = PyObject_GetAttr(node, str_stats)) == NULL ||
             (d->advance = PyObject_GetAttr(node, str_advance_app)) == NULL ||
             (d->on_fragment = PyObject_GetAttr(node, str_on_fragment)) == NULL)
        goto fail;
    return 0;

fail:
    dispatch_end(q, d);
    return -1;
}

static inline int
tag_is(PyObject *tag, PyObject *interned)
{
    return tag == interned ||
           (PyUnicode_Check(tag) && PyUnicode_Compare(tag, interned) == 0);
}

/* ``handler(time, payload)`` for its effects only.  Returns 0, or -1
 * with the exception set. */
static int
call_timed(PyObject *handler, long long time, PyObject *payload)
{
    PyObject *time_obj = PyLong_FromLongLong(time);
    if (time_obj == NULL)
        return -1;
    PyObject *result = PyObject_CallFunctionObjArgs(handler, time_obj,
                                                    payload, NULL);
    Py_DECREF(time_obj);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* Dispatch one popped entry by tag — the single statement of the
 * ``"app-wake"`` / ``"emit"`` / ``"delivery"`` / timer chain in this
 * module (python twin: ``EventQueue.handle_next``).  Consumes the
 * entry's event reference.  Handlers re-enter the queue (schedule,
 * cancel, compact), so the entry is fully popped before this runs and
 * callers re-read all heap state from the queue afterwards. */
static int
dispatch_event(QueueObject *q, Dispatch *d, qentry entry)
{
    PyObject *event = entry.event;
    PyObject *tag, *payload;  /* borrowed: the event keeps them alive */
    if (Event_CheckExact(event)) {
        EventObject *native = (EventObject *)event;
        tag = native->tag;
        payload = native->payload;
    }
    else {
        tag = PyObject_GetAttr(event, kw_tag);
        payload = tag != NULL ? PyObject_GetAttr(event, kw_payload) : NULL;
        Py_XDECREF(tag);
        Py_XDECREF(payload);
        if (payload == NULL) {
            Py_DECREF(event);
            return -1;
        }
    }
    int rc = -1;
    if (tag_is(tag, s_app_wake)) {
        if (d->bound)
            rc = handle_app_wake(q, d->activity_hook, entry.time, payload,
                                 &d->acc);
        else {
            d->acc.wakeups += 1;
            rc = call_timed(d->advance, entry.time, payload);
        }
    }
    else if (tag_is(tag, s_emit)) {
        if (d->emit_hook == Py_None) {
            PyObject *name = PyObject_GetAttr(d->node, str_name);
            PyErr_Format(PyExc_RuntimeError,
                         "%V: emit event without emit_hook", name, "node");
            Py_XDECREF(name);
        }
        else {
            PyObject *result = PyObject_CallFunctionObjArgs(
                d->emit_hook, d->node, payload, NULL);
            rc = result == NULL ? -1 : 0;
            Py_XDECREF(result);
        }
    }
    else if (tag_is(tag, s_delivery))
        rc = d->bound ? handle_delivery(q, d->activity_hook, entry.time,
                                        payload, &d->acc)
                      : call_timed(d->on_fragment, entry.time, payload);
    else {
        PyObject *time_obj = PyLong_FromLongLong(entry.time);
        PyObject *result =
            time_obj == NULL
                ? NULL
                : PyObject_CallMethodObjArgs(d->node, str_handle_timer, tag,
                                             payload, time_obj, NULL);
        Py_XDECREF(time_obj);
        rc = result == NULL ? -1 : 0;
        Py_XDECREF(result);
    }
    Py_DECREF(event);
    return rc;
}

static PyObject *
queue_drain(QueueObject *self, PyObject *args)
{
    PyObject *end_obj;
    PyObject *node;
    if (!PyArg_ParseTuple(args, "OO:drain", &end_obj, &node))
        return NULL;
    long long end = PyLong_AsLongLong(end_obj);
    if (end == -1 && PyErr_Occurred())
        return NULL;
    Dispatch d;
    if (dispatch_begin(self, node, &d) < 0)
        return NULL;
    long long handled = 0;
    PyObject *result = NULL;
    while (drop_dead(self) == 0) {
        if (self->n == 0 || self->heap[0].time >= end) {
            PyObject *next_time = queue_peek_time(self, NULL);
            if (next_time != NULL)
                result = Py_BuildValue("LN", handled, next_time);
            break;
        }
        qentry entry = heap_pop_root(self);
        self->live -= 1;
        handled += 1;
        if (dispatch_event(self, &d, entry) < 0)
            break;
    }
    dispatch_end(self, &d);
    return result;
}

/* ``drain`` for exactly one event, whatever its time: the interleaving
 * steppers' per-event entry (``SimulatedNode.pop_and_handle``).  Like
 * ``pop()`` + python dispatch, a handler's exception leaves the event
 * consumed and the queue consistent. */
static PyObject *
queue_handle_next(QueueObject *self, PyObject *node)
{
    if (drop_dead(self) < 0)
        return NULL;
    if (self->n == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from empty EventQueue");
        return NULL;
    }
    qentry entry = heap_pop_root(self);
    self->live -= 1;
    Dispatch d;
    if (dispatch_begin(self, node, &d) < 0) {
        Py_DECREF(entry.event);
        return NULL;
    }
    int rc = dispatch_event(self, &d, entry);
    dispatch_end(self, &d);
    if (rc < 0)
        return NULL;
    return queue_peek_time(self, NULL);
}

static PyGetSetDef queue_getset[] = {
    {"dead_entries", (getter)queue_get_dead_entries, NULL,
     "Cancelled entries still occupying heap slots (visibility for tests).",
     NULL},
    {"_next_seq", (getter)queue_get_next_seq, NULL,
     "Next insertion sequence number (snapshot visibility).", NULL},
    {NULL},
};

static PyMethodDef queue_methods[] = {
    {"push", (PyCFunction)queue_push, METH_O,
     "Schedule *event*; returns it for chaining."},
    {"schedule", (PyCFunction)(void (*)(void))queue_schedule,
     METH_FASTCALL | METH_KEYWORDS,
     "Create and push an event in one step."},
    {"push_many", (PyCFunction)queue_push_many, METH_O,
     "Schedule a batch of events with at most one heap restore."},
    {"schedule_many", (PyCFunction)(void (*)(void))queue_schedule_many,
     METH_FASTCALL | METH_KEYWORDS,
     "Create and push one *tag* event per (time, payload) item."},
    {"cancel", (PyCFunction)queue_cancel, METH_O,
     "Cancel *event* if it is still live (idempotent)."},
    {"peek", (PyCFunction)queue_peek, METH_NOARGS,
     "Return the next live event without removing it, or None."},
    {"peek_time", (PyCFunction)queue_peek_time, METH_NOARGS,
     "Return the time of the next live event, or None if empty."},
    {"pop", (PyCFunction)queue_pop, METH_NOARGS,
     "Remove and return the next live event (IndexError when empty)."},
    {"drain", (PyCFunction)queue_drain, METH_VARARGS,
     "Pop and dispatch every node event before *end*; returns "
     "(handled, next_event_time)."},
    {"handle_next", (PyCFunction)queue_handle_next, METH_O,
     "Pop and dispatch the next live event of *node*; returns the next "
     "event time (IndexError when empty)."},
    {"clear", (PyCFunction)queue_clear, METH_NOARGS,
     "Drop all events (used when tearing a simulation down)."},
    {"live_events", (PyCFunction)queue_live_events, METH_NOARGS,
     "Snapshot view: the live events in heap-array order."},
    {"restore_events", (PyCFunction)queue_restore_events, METH_VARARGS,
     "Rebuild the queue from (events, next_seq) captured by live_events."},
    {NULL},
};

static PySequenceMethods queue_as_sequence = {
    .sq_length = (lenfunc)queue_len,
};

static PyTypeObject Queue_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.engine._native.EventQueue",
    .tp_basicsize = sizeof(QueueObject),
    .tp_dealloc = (destructor)queue_dealloc,
    .tp_as_sequence = &queue_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Deterministic (time, insertion order) priority queue of events "
              "(native twin of repro.engine.events.EventQueue).",
    .tp_traverse = (traverseproc)queue_traverse,
    .tp_clear = (inquiry)queue_clear_gc,
    .tp_methods = queue_methods,
    .tp_getset = queue_getset,
    .tp_new = queue_new,
};

/* ------------------------------------------------------------------ */
/* Module                                                             */
/* ------------------------------------------------------------------ */

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.engine._native",
    .m_doc = "Compiled engine core: Event and EventQueue with the "
             "interpreter taken out of the inner loop.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    s_app_wake = PyUnicode_InternFromString("app-wake");
    s_emit = PyUnicode_InternFromString("emit");
    s_delivery = PyUnicode_InternFromString("delivery");
    s_empty = PyUnicode_InternFromString("");
    str_seq = PyUnicode_InternFromString("_seq");
    str_alive = PyUnicode_InternFromString("_alive");
    str_time = PyUnicode_InternFromString("time");
    str_cancel = PyUnicode_InternFromString("cancel");
    str_app_wakeups = PyUnicode_InternFromString("app_wakeups");
    kw_time = PyUnicode_InternFromString("time");
    kw_action = PyUnicode_InternFromString("action");
    kw_tag = PyUnicode_InternFromString("tag");
    kw_payload = PyUnicode_InternFromString("payload");
    kw_items = PyUnicode_InternFromString("items");
    s_ack = PyUnicode_InternFromString("ack");
    str_queue = PyUnicode_InternFromString("queue");
    str_stats = PyUnicode_InternFromString("stats");
    str_process = PyUnicode_InternFromString("process");
    str_step = PyUnicode_InternFromString("step");
    str_app_log = PyUnicode_InternFromString("app_log");
    str_transport = PyUnicode_InternFromString("transport");
    str_nic = PyUnicode_InternFromString("nic");
    str_build_frames = PyUnicode_InternFromString("build_frames");
    str_receive_fragment = PyUnicode_InternFromString("receive_fragment");
    str_match = PyUnicode_InternFromString("match");
    str_emit_hook = PyUnicode_InternFromString("emit_hook");
    str_activity_hook = PyUnicode_InternFromString("activity_hook");
    str_activity = PyUnicode_InternFromString("activity");
    str_compute_memo = PyUnicode_InternFromString("_compute_memo");
    str_send_cost_memo = PyUnicode_InternFromString("_send_cost_memo");
    str_recv_cost_memo = PyUnicode_InternFromString("_recv_cost_memo");
    str_cpu = PyUnicode_InternFromString("cpu");
    str_compute_time = PyUnicode_InternFromString("compute_time");
    str_costs = PyUnicode_InternFromString("costs");
    str_send_cost = PyUnicode_InternFromString("send_cost");
    str_recv_cost = PyUnicode_InternFromString("recv_cost");
    str_advance_app = PyUnicode_InternFromString("_advance_app");
    str_interpret = PyUnicode_InternFromString("_interpret");
    str_do_send = PyUnicode_InternFromString("_do_send");
    str_on_fragment = PyUnicode_InternFromString("_on_fragment");
    str_handle_timer = PyUnicode_InternFromString("_handle_timer");
    str_blocked_recv = PyUnicode_InternFromString("_blocked_recv");
    str_blocked_since = PyUnicode_InternFromString("_blocked_since");
    str_finished = PyUnicode_InternFromString("finished");
    str_app_finish_time = PyUnicode_InternFromString("app_finish_time");
    str_app_result = PyUnicode_InternFromString("app_result");
    str_result = PyUnicode_InternFromString("result");
    str_matches = PyUnicode_InternFromString("matches");
    str_ops = PyUnicode_InternFromString("ops");
    str_duration = PyUnicode_InternFromString("duration");
    str_dst = PyUnicode_InternFromString("dst");
    str_nbytes = PyUnicode_InternFromString("nbytes");
    str_src = PyUnicode_InternFromString("src");
    str_send_time = PyUnicode_InternFromString("send_time");
    str_kind = PyUnicode_InternFromString("kind");
    str_arrived_at = PyUnicode_InternFromString("arrived_at");
    str_ideal_arrival = PyUnicode_InternFromString("ideal_arrival");
    str_deliveries = PyUnicode_InternFromString("deliveries");
    str_messages_sent = PyUnicode_InternFromString("messages_sent");
    str_messages_received = PyUnicode_InternFromString("messages_received");
    str_straggler_messages = PyUnicode_InternFromString("straggler_messages");
    str_straggler_delay = PyUnicode_InternFromString("straggler_delay");
    str_blocked_time = PyUnicode_InternFromString("blocked_time");
    s_data = PyUnicode_InternFromString("data");
    str_packet_ids = PyUnicode_InternFromString("_packet_ids");
    str_started = PyUnicode_InternFromString("_started");
    str_generator = PyUnicode_InternFromString("_generator");
    str_send = PyUnicode_InternFromString("send");
    str_name = PyUnicode_InternFromString("name");
    str_value = PyUnicode_InternFromString("value");
    str_node_id = PyUnicode_InternFromString("node_id");
    str_tx_free_at = PyUnicode_InternFromString("_tx_free_at");
    str_frame_plans = PyUnicode_InternFromString("_frame_plans");
    str_wire_ns = PyUnicode_InternFromString("_wire_ns");
    str_message_ids = PyUnicode_InternFromString("_message_ids");
    str_mailbox = PyUnicode_InternFromString("_mailbox");
    str_mailbox_seq = PyUnicode_InternFromString("_mailbox_seq");
    str_append = PyUnicode_InternFromString("append");
    str_popleft = PyUnicode_InternFromString("popleft");
    str_size_bytes = PyUnicode_InternFromString("size_bytes");
    str_fragment = PyUnicode_InternFromString("fragment");
    str_last_fragment = PyUnicode_InternFromString("last_fragment");
    str_message_id = PyUnicode_InternFromString("message_id");
    str_due_time = PyUnicode_InternFromString("due_time");
    str_deliver_time = PyUnicode_InternFromString("deliver_time");
    str_straggler = PyUnicode_InternFromString("straggler");
    str_retransmit = PyUnicode_InternFromString("retransmit");
    str_packet_id = PyUnicode_InternFromString("packet_id");
    str_sent_at = PyUnicode_InternFromString("sent_at");
    str_fragments = PyUnicode_InternFromString("fragments");
    str_frames_sent = PyUnicode_InternFromString("frames_sent");
    str_frames_received = PyUnicode_InternFromString("frames_received");
    str_bytes_sent = PyUnicode_InternFromString("bytes_sent");
    str_bytes_received = PyUnicode_InternFromString("bytes_received");
    str_reassembly = PyUnicode_InternFromString("_reassembly");
    str_message = PyUnicode_InternFromString("message");
    str_received = PyUnicode_InternFromString("received");
    str_expected = PyUnicode_InternFromString("expected");
    str_max_deliver = PyUnicode_InternFromString("max_deliver");
    str_max_due = PyUnicode_InternFromString("max_due");
    empty_tuple = PyTuple_New(0);
    if (!s_data || !str_packet_ids || !str_started || !str_generator ||
        !str_send || !str_name || !str_value || !str_node_id ||
        !str_tx_free_at || !str_frame_plans || !str_wire_ns ||
        !str_message_ids || !str_mailbox || !str_mailbox_seq ||
        !str_append || !str_popleft || !str_size_bytes || !str_fragment ||
        !str_last_fragment || !str_message_id || !str_due_time ||
        !str_deliver_time || !str_straggler || !str_retransmit ||
        !str_packet_id || !str_sent_at || !str_fragments ||
        !str_frames_sent || !str_frames_received || !str_bytes_sent ||
        !str_bytes_received || !str_reassembly || !str_message ||
        !str_received || !str_expected || !str_max_deliver ||
        !str_max_due || !empty_tuple)
        return NULL;
    if (!s_app_wake || !s_emit || !s_delivery || !s_empty || !str_seq ||
        !str_alive || !str_time || !str_cancel || !str_app_wakeups ||
        !kw_time || !kw_action || !kw_tag || !kw_payload || !kw_items ||
        !s_ack || !str_queue || !str_stats || !str_process || !str_step ||
        !str_app_log || !str_transport || !str_nic || !str_build_frames ||
        !str_receive_fragment || !str_match || !str_emit_hook ||
        !str_activity_hook || !str_activity || !str_compute_memo ||
        !str_send_cost_memo || !str_recv_cost_memo || !str_cpu ||
        !str_compute_time || !str_costs || !str_send_cost || !str_recv_cost ||
        !str_advance_app || !str_interpret || !str_do_send || !str_on_fragment ||
        !str_handle_timer || !str_blocked_recv || !str_blocked_since ||
        !str_finished || !str_app_finish_time || !str_app_result ||
        !str_result || !str_matches || !str_ops || !str_duration ||
        !str_dst || !str_nbytes || !str_src || !str_send_time || !str_kind ||
        !str_arrived_at || !str_ideal_arrival || !str_deliveries ||
        !str_messages_sent || !str_messages_received ||
        !str_straggler_messages || !str_straggler_delay || !str_blocked_time)
        return NULL;

    /* The portable pickle target lives in the pure-python module; import
     * it once so __reduce__ never pays an import. */
    PyObject *events_mod = PyImport_ImportModule("repro.engine.events");
    if (events_mod == NULL)
        return NULL;
    portable_restore = PyObject_GetAttrString(events_mod,
                                              "_restore_portable_event");
    Py_DECREF(events_mod);
    if (portable_restore == NULL)
        return NULL;

    /* The drain fast path dispatches on the request classes and the
     * activity singletons of the node layer; resolve them once.  These
     * modules do not import the backend shim at module scope, so there
     * is no import cycle. */
    PyObject *requests_mod = PyImport_ImportModule("repro.node.requests");
    if (requests_mod == NULL)
        return NULL;
    cls_compute = PyObject_GetAttrString(requests_mod, "Compute");
    cls_compute_time = PyObject_GetAttrString(requests_mod, "ComputeTime");
    cls_send = PyObject_GetAttrString(requests_mod, "Send");
    cls_recv = PyObject_GetAttrString(requests_mod, "Recv");
    cls_sleep = PyObject_GetAttrString(requests_mod, "Sleep");
    PyObject *any_source = PyObject_GetAttrString(requests_mod, "ANY_SOURCE");
    PyObject *any_tag = PyObject_GetAttrString(requests_mod, "ANY_TAG");
    Py_DECREF(requests_mod);
    if (!cls_compute || !cls_compute_time || !cls_send || !cls_recv ||
        !cls_sleep || !any_source || !any_tag) {
        Py_XDECREF(any_source);
        Py_XDECREF(any_tag);
        return NULL;
    }
    any_source_val = PyLong_AsLongLong(any_source);
    any_tag_val = PyLong_AsLongLong(any_tag);
    Py_DECREF(any_source);
    Py_DECREF(any_tag);
    if (PyErr_Occurred())
        return NULL;
    PyObject *process_mod = PyImport_ImportModule("repro.engine.process");
    if (process_mod == NULL)
        return NULL;
    cls_process_exit = PyObject_GetAttrString(process_mod, "ProcessExit");
    cls_process_error = PyObject_GetAttrString(process_mod, "ProcessError");
    Py_DECREF(process_mod);
    if (cls_process_exit == NULL || cls_process_error == NULL)
        return NULL;
    /* The NIC fast paths build real Packet/Message instances; the packet
     * module is retained so the rebindable _packet_ids counter is read
     * fresh on every construction (checkpoint restore replaces it). */
    mod_packet = PyImport_ImportModule("repro.network.packet");
    if (mod_packet == NULL)
        return NULL;
    cls_packet = PyObject_GetAttrString(mod_packet, "Packet");
    if (cls_packet == NULL)
        return NULL;
    PyObject *nic_mod = PyImport_ImportModule("repro.node.nic");
    if (nic_mod == NULL)
        return NULL;
    cls_message = PyObject_GetAttrString(nic_mod, "Message");
    cls_reassembly = PyObject_GetAttrString(nic_mod, "_Reassembly");
    Py_DECREF(nic_mod);
    if (cls_message == NULL || cls_reassembly == NULL)
        return NULL;
    if (!PyType_Check(cls_packet) || !PyType_Check(cls_message) ||
        !PyType_Check(cls_reassembly)) {
        PyErr_SetString(PyExc_ImportError,
                        "Packet/Message/_Reassembly are not classes");
        return NULL;
    }
    PyObject *collections_mod = PyImport_ImportModule("collections");
    if (collections_mod == NULL)
        return NULL;
    cls_deque = PyObject_GetAttrString(collections_mod, "deque");
    Py_DECREF(collections_mod);
    if (cls_deque == NULL)
        return NULL;
    PyObject *hostmodel_mod = PyImport_ImportModule("repro.node.hostmodel");
    if (hostmodel_mod == NULL)
        return NULL;
    s_busy = PyObject_GetAttrString(hostmodel_mod, "BUSY");
    s_idle = PyObject_GetAttrString(hostmodel_mod, "IDLE");
    Py_DECREF(hostmodel_mod);
    if (s_busy == NULL || s_idle == NULL || !PyUnicode_Check(s_busy) ||
        !PyUnicode_Check(s_idle)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ImportError,
                            "hostmodel BUSY/IDLE are not strings");
        return NULL;
    }

    if (PyType_Ready(&Event_Type) < 0 || PyType_Ready(&Queue_Type) < 0)
        return NULL;

    PyObject *module = PyModule_Create(&native_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&Event_Type);
    if (PyModule_AddObject(module, "Event", (PyObject *)&Event_Type) < 0) {
        Py_DECREF(&Event_Type);
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&Queue_Type);
    if (PyModule_AddObject(module, "EventQueue", (PyObject *)&Queue_Type) < 0) {
        Py_DECREF(&Queue_Type);
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddIntConstant(module, "ABI_VERSION", NATIVE_ABI_VERSION) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
