#include "common/trace.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/env.h"

namespace hytap {

namespace trace_internal {

std::atomic<bool> g_enabled{EnvBool("HYTAP_TRACE", false)};

}  // namespace trace_internal

void SetTraceEnabled(bool enabled) {
  trace_internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

const std::string& TraceSpan::Annotation(const std::string& key) const {
  static const std::string kEmpty;
  for (const auto& [k, v] : annotations) {
    if (k == key) return v;
  }
  return kEmpty;
}

std::string TraceFormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void RenderTextNode(const TraceSpan& span, size_t depth, std::string* out) {
  out->append(2 * depth, ' ');
  *out += span.name;
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer),
                " [sim=%" PRIu64 "ns wall=%" PRIu64 "ns]", span.simulated_ns,
                span.wall_ns);
  *out += buffer;
  for (const auto& [key, value] : span.annotations) {
    *out += ' ';
    *out += key;
    *out += '=';
    *out += value;
  }
  *out += '\n';
  for (const TraceSpan& child : span.children) {
    RenderTextNode(child, depth + 1, out);
  }
}

void RenderJsonNode(const TraceSpan& span, std::string* out) {
  *out += "{\"name\": \"";
  *out += JsonEscape(span.name);
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer),
                "\", \"simulated_ns\": %" PRIu64 ", \"wall_ns\": %" PRIu64
                ", \"annotations\": {",
                span.simulated_ns, span.wall_ns);
  *out += buffer;
  for (size_t i = 0; i < span.annotations.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += '"';
    *out += JsonEscape(span.annotations[i].first);
    *out += "\": \"";
    *out += JsonEscape(span.annotations[i].second);
    *out += '"';
  }
  *out += "}, \"children\": [";
  for (size_t i = 0; i < span.children.size(); ++i) {
    if (i > 0) *out += ", ";
    RenderJsonNode(span.children[i], out);
  }
  *out += "]}";
}

/// Minimal recursive-descent parser for the schema RenderTraceJson emits.
class TraceJsonParser {
 public:
  explicit TraceJsonParser(const std::string& input) : in_(input) {}

  bool Parse(TraceSpan* out) {
    return ParseSpan(out, 1) && (SkipSpace(), pos_ == in_.size());
  }

 private:
  void SkipSpace() {
    while (pos_ < in_.size() &&
           (in_[pos_] == ' ' || in_[pos_] == '\n' || in_[pos_] == '\t' ||
            in_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= in_.size() || in_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(const char* literal) {
    SkipSpace();
    const size_t n = std::strlen(literal);
    if (in_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < in_.size()) {
      const char c = in_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= in_.size()) return false;
      const char esc = in_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case 'n':
          *out += '\n';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > in_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = in_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= unsigned(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= unsigned(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= unsigned(h - 'A' + 10);
            } else {
              return false;
            }
          }
          if (code > 0x7f) return false;  // emitter only escapes ASCII
          *out += char(code);
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool ParseUint(uint64_t* out) {
    SkipSpace();
    if (pos_ >= in_.size() || in_[pos_] < '0' || in_[pos_] > '9') {
      return false;
    }
    uint64_t value = 0;
    while (pos_ < in_.size() && in_[pos_] >= '0' && in_[pos_] <= '9') {
      value = value * 10 + uint64_t(in_[pos_++] - '0');
    }
    *out = value;
    return true;
  }

  bool ParseSpan(TraceSpan* out, size_t depth) {
    if (depth > kMaxTraceDepth) return false;
    *out = TraceSpan();
    if (!Consume('{') || !ConsumeLiteral("\"name\"") || !Consume(':') ||
        (SkipSpace(), !ParseString(&out->name)) || !Consume(',') ||
        !ConsumeLiteral("\"simulated_ns\"") || !Consume(':') ||
        !ParseUint(&out->simulated_ns) || !Consume(',') ||
        !ConsumeLiteral("\"wall_ns\"") || !Consume(':') ||
        !ParseUint(&out->wall_ns) || !Consume(',') ||
        !ConsumeLiteral("\"annotations\"") || !Consume(':') ||
        !Consume('{')) {
      return false;
    }
    SkipSpace();
    if (pos_ < in_.size() && in_[pos_] == '"') {
      while (true) {
        std::string key, value;
        if (!ParseString(&key) || !Consume(':') ||
            (SkipSpace(), !ParseString(&value))) {
          return false;
        }
        out->annotations.emplace_back(std::move(key), std::move(value));
        if (!Consume(',')) break;
        SkipSpace();
      }
    }
    if (!Consume('}') || !Consume(',') || !ConsumeLiteral("\"children\"") ||
        !Consume(':') || !Consume('[')) {
      return false;
    }
    SkipSpace();
    if (pos_ < in_.size() && in_[pos_] == '{') {
      while (true) {
        out->children.emplace_back();
        if (!ParseSpan(&out->children.back(), depth + 1)) return false;
        if (!Consume(',')) break;
      }
    }
    return Consume(']') && Consume('}');
  }

  const std::string& in_;
  size_t pos_ = 0;
};

}  // namespace

std::string RenderTraceText(const TraceSpan& root) {
  std::string out;
  RenderTextNode(root, 0, &out);
  return out;
}

std::string RenderTraceJson(const TraceSpan& root) {
  std::string out;
  RenderJsonNode(root, &out);
  out += '\n';
  return out;
}

bool ParseTraceJson(const std::string& json, TraceSpan* out) {
  return TraceJsonParser(json).Parse(out);
}

TraceSpan StripTimes(const TraceSpan& root) {
  TraceSpan stripped = root;
  stripped.simulated_ns = 0;
  stripped.wall_ns = 0;
  for (TraceSpan& child : stripped.children) child = StripTimes(child);
  return stripped;
}

}  // namespace hytap
